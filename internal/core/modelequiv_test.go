package core_test

import (
	"fmt"
	"testing"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/registry"
	"reqsched/internal/workload"
)

// The service-model refactor's compatibility contract: a trace carrying an
// explicit hold=1,cap=1 model must behave bit-identically to the same trace
// with the model left at its zero value — same engine schedules for every
// strategy, same value from all three offline optima, and no extra
// allocations on the warm path. These tests pin that contract on the Table 1
// adversaries and on random workloads.

// explicitUnit returns a shallow copy of tr stamped with the explicit unit
// model (the trace data is shared; the engine never mutates it).
func explicitUnit(tr *core.Trace) *core.Trace {
	cp := *tr
	cp.Model = core.UnitModel()
	return &cp
}

// sameSchedule fails unless the two results carry the identical fulfillment
// schedule in the identical service order.
func sameSchedule(t *testing.T, label string, a, b *core.Result) {
	t.Helper()
	if a.Requests != b.Requests || a.Fulfilled != b.Fulfilled || a.Expired != b.Expired {
		t.Errorf("%s: totals diverge: %d/%d/%d vs %d/%d/%d",
			label, a.Requests, a.Fulfilled, a.Expired, b.Requests, b.Fulfilled, b.Expired)
		return
	}
	if len(a.Log) != len(b.Log) {
		t.Errorf("%s: log length %d vs %d", label, len(a.Log), len(b.Log))
		return
	}
	for i := range a.Log {
		fa, fb := a.Log[i], b.Log[i]
		if fa.Req.ID != fb.Req.ID || fa.Res != fb.Res || fa.Round != fb.Round {
			t.Errorf("%s: schedule diverges at entry %d: req %d res %d round %d vs req %d res %d round %d",
				label, i, fa.Req.ID, fa.Res, fa.Round, fb.Req.ID, fb.Res, fb.Round)
			return
		}
	}
}

// optimaAgree checks that batch, segmented-parallel and incremental OPT agree
// on tr, and that the explicit-unit copy yields the same value from each.
func optimaAgree(t *testing.T, label string, tr *core.Trace) {
	t.Helper()
	want := offline.Optimum(tr)
	if got, _ := offline.Solve(tr, offline.Cardinality, 3); got != want {
		t.Errorf("%s: segmented OPT %d vs batch %d", label, got, want)
	}
	if got := offline.OptimumIncremental(tr); got != want {
		t.Errorf("%s: incremental OPT %d vs batch %d", label, got, want)
	}
	cp := explicitUnit(tr)
	if got := offline.Optimum(cp); got != want {
		t.Errorf("%s: explicit unit model changed batch OPT: %d vs %d", label, got, want)
	}
	if got, _ := offline.Solve(cp, offline.Cardinality, 3); got != want {
		t.Errorf("%s: explicit unit model changed segmented OPT: %d vs %d", label, got, want)
	}
	if got := offline.OptimumIncremental(cp); got != want {
		t.Errorf("%s: explicit unit model changed incremental OPT: %d vs %d", label, got, want)
	}
}

// listedStrategyNames returns the registry's listed strategy names in a
// deterministic order.
func listedStrategyNames() []string {
	var names []string
	for _, c := range registry.All(registry.KindStrategy) {
		if c.Listed {
			names = append(names, c.Name)
		}
	}
	return names
}

// TestExplicitUnitModelBitIdenticalOnAdversaries: every oblivious registered
// construction (the Table 1 adversaries plus the local/EDF/universal ones),
// every listed strategy — stamping the explicit unit model on the trace must
// not move a single fulfillment, and the three offline optima must agree
// before and after.
func TestExplicitUnitModelBitIdenticalOnAdversaries(t *testing.T) {
	strategies := listedStrategyNames()
	for _, adv := range registry.Names(registry.KindAdversary) {
		c, err := registry.BuildAdversary(adv, registry.Params{"phases": registry.IntVal(2)})
		if err != nil {
			t.Errorf("build %s: %v", adv, err)
			continue
		}
		// Adaptive sources regenerate their trace per run; the oblivious
		// constructions cover the bit-identity property. Constructions for
		// non-unit models (hold_squeeze) have no zero-model twin to compare.
		if c.Trace == nil || !c.Trace.Model.IsUnit() {
			continue
		}
		optimaAgree(t, adv, c.Trace)
		for _, name := range strategies {
			label := fmt.Sprintf("%s on adversary %s", name, adv)
			a := reqsched.Run(reqsched.StrategyByName(name), c.Trace)
			b := reqsched.Run(reqsched.StrategyByName(name), explicitUnit(c.Trace))
			sameSchedule(t, label, a, b)
		}
	}
}

// TestExplicitUnitModelBitIdenticalOnRandomWorkloads is the property sweep
// over the random workload families (uniform, bursty, mixed-deadline),
// rotating through every listed strategy.
func TestExplicitUnitModelBitIdenticalOnRandomWorkloads(t *testing.T) {
	strategies := listedStrategyNames()
	for i := 0; i < 90; i++ {
		cfg := reqsched.WorkloadConfig{
			N:      2 + i%5,
			D:      1 + i%4,
			Rounds: 10 + i%21,
			Rate:   0.6 * float64(1+i%7),
			Seed:   int64(7000 + i),
		}
		var tr *reqsched.Trace
		switch i % 3 {
		case 0:
			tr = reqsched.Uniform(cfg)
		case 1:
			tr = reqsched.Bursty(cfg, 2+i%3, 3+i%5, 3*cfg.Rate)
		default:
			tr = reqsched.MixedDeadlines(cfg)
		}
		optimaAgree(t, fmt.Sprintf("workload %d", i), tr)
		name := strategies[i%len(strategies)]
		label := fmt.Sprintf("%s on workload %d (n=%d d=%d)", name, i, cfg.N, cfg.D)
		a := reqsched.Run(reqsched.StrategyByName(name), tr)
		b := reqsched.Run(reqsched.StrategyByName(name), explicitUnit(tr))
		sameSchedule(t, label, a, b)
	}
}

// TestUnitModelRunAddsNoAllocs is the warm-path allocation guard for the
// model abstraction: stamping the explicit unit model on a trace must leave
// the engine's steady-state allocation count exactly where the zero-model
// (legacy) run has it — the occupancy machinery must stay entirely off the
// unit-model path. The window's assignment index is a ring, not a map, so the
// counts repeat exactly on every run and with either map implementation.
func TestUnitModelRunAddsNoAllocs(t *testing.T) {
	tr := reqsched.Uniform(reqsched.WorkloadConfig{N: 8, D: 4, Rounds: 120, Rate: 9, Seed: 5})
	cp := explicitUnit(tr)
	for _, name := range []string{"A_balance", "A_fix", "compose,router=greedy", "first_fit"} {
		s := reqsched.StrategyByName(name)
		want := testing.AllocsPerRun(10, func() { reqsched.Run(s, tr) })
		got := testing.AllocsPerRun(10, func() { reqsched.Run(s, cp) })
		if got != want {
			t.Errorf("%s: explicit unit model allocates %.1f/run, zero model %.1f/run", name, got, want)
		}
	}
}

// repeat returns k copies of tr's traffic, each starting an epoch-aligned
// gap after the previous copy's last hold has ended, so every copy meets the
// same peak backlog and a longer run differs from a shorter one only in its
// number of rounds.
func repeat(tr *core.Trace, k int) *core.Trace {
	hold := tr.Model.Norm().Hold
	span := (tr.Horizon()/hold + 2) * hold
	b := core.NewBuilder(tr.N, tr.D)
	b.SetModel(tr.Model)
	for c := 0; c < k; c++ {
		for _, r := range tr.Requests() {
			b.AddWindow(c*span+r.Arrive, r.D, r.Alts...)
		}
	}
	return b.Build()
}

// TestHoldModelRunWork pins the greedy router under the reusable-resource
// service models on Reusable traffic at 0.9 load (n=16, d=4, seed 11, about
// 50,000 requests per model): the exact served count, and exactly as many
// allocations on the same traffic repeated four times, so neither the rounds
// nor the occupancy path of hold > 1 allocate. The traffic is repeated rather
// than generated four times longer because a longer random trace reaches a
// higher peak backlog, and the pending queue's one extra growth step would
// read as a per-round allocation.
func TestHoldModelRunWork(t *testing.T) {
	const (
		n, d     = 16, 4
		load     = 0.9
		requests = 50000
	)
	s := reqsched.StrategyByName("compose,router=greedy")
	run := func(tr *core.Trace) *core.Result {
		res, err := core.RunChecked(s, tr)
		if err != nil {
			t.Fatalf("%s: %v", tr.Model, err)
		}
		return res
	}
	for _, c := range []struct {
		model  core.ServiceModel
		served int
	}{
		{core.ServiceModel{Hold: 1, Cap: 1}, 49303},
		{core.ServiceModel{Hold: 2, Cap: 1}, 47142},
		{core.ServiceModel{Hold: 4, Cap: 2}, 47453},
		{core.ServiceModel{Hold: 8, Cap: 2}, 44168},
	} {
		// rate = load*n*cap/hold, so these rounds give every model the same
		// request count at the same utilization.
		rounds := int(float64(requests) * float64(c.model.Hold) / (load * float64(n) * float64(c.model.Cap)))
		tr := workload.Reusable(workload.Config{N: n, D: d, Rounds: rounds, Seed: 11}, c.model, load)
		if got := run(tr).Fulfilled; got != c.served {
			t.Errorf("%s: served %d of %d, want %d", c.model, got, tr.NumRequests(), c.served)
		}
		if testing.Short() {
			continue
		}
		long := repeat(tr, 4)
		if got := run(long).Fulfilled; got != 4*c.served {
			t.Errorf("%s: served %d of four copies, want %d", c.model, got, 4*c.served)
		}
		once := testing.AllocsPerRun(1, func() { run(tr) })
		four := testing.AllocsPerRun(1, func() { run(long) })
		t.Logf("%s: %v allocs per run, %v on four copies", c.model, once, four)
		if four != once {
			t.Errorf("%s: %v allocs on four copies vs %v on one: the rounds allocate", c.model, four, once)
		}
	}
}

// TestEngineHoldSemantics pins the reusable-resources engine behavior: a
// service started at round r occupies its resource for [r, r+hold), so on a
// single resource with hold=3 and per-round deadlines only every third
// arrival can be served.
func TestEngineHoldSemantics(t *testing.T) {
	b := core.NewBuilder(1, 1)
	b.SetModel(core.ServiceModel{Hold: 3})
	for tt := 0; tt < 6; tt++ {
		b.AddWindow(tt, 1, 0)
	}
	tr := b.Build()
	res, err := core.RunChecked(reqsched.StrategyByName("compose,router=greedy"), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fulfilled != 2 || res.Expired != 4 {
		t.Fatalf("hold=3: fulfilled %d expired %d, want 2/4", res.Fulfilled, res.Expired)
	}
	for i, wantRound := range []int{0, 3} {
		if res.Log[i].Round != wantRound {
			t.Errorf("hold=3: service %d at round %d, want %d", i, res.Log[i].Round, wantRound)
		}
	}
	if got := offline.Optimum(tr); got != 2 {
		t.Errorf("hold=3: OPT = %d, want 2 (occupancy binds the optimum too)", got)
	}
}

// TestEngineCapSemantics: cap=2 serves two concurrent requests per resource;
// the third arrival in a full window expires.
func TestEngineCapSemantics(t *testing.T) {
	b := core.NewBuilder(1, 1)
	b.SetModel(core.ServiceModel{Hold: 2, Cap: 2})
	for i := 0; i < 3; i++ {
		b.AddWindow(0, 1, 0)
	}
	b.AddWindow(2, 1, 0)
	b.AddWindow(2, 1, 0)
	tr := b.Build()
	res, err := core.RunChecked(reqsched.StrategyByName("compose,router=greedy"), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fulfilled != 4 || res.Expired != 1 {
		t.Fatalf("hold=2,cap=2: fulfilled %d expired %d, want 4/1", res.Fulfilled, res.Expired)
	}
	if got := offline.Optimum(tr); got != 4 {
		t.Errorf("hold=2,cap=2: OPT = %d, want 4", got)
	}
}

// TestModelGatingErrors: strategies that plan joint future schedules
// (matching-based) must be rejected under hold>1 rather than silently
// computing an occupancy-blind schedule; scan-based routers pass.
func TestModelGatingErrors(t *testing.T) {
	b := core.NewBuilder(2, 2)
	b.SetModel(core.ServiceModel{Hold: 2})
	b.Add(0, 0, 1)
	tr := b.Build()
	if _, err := core.RunChecked(reqsched.StrategyByName("A_balance"), tr); err == nil {
		t.Error("A_balance must be rejected under hold=2")
	}
	if err := core.CheckModelSupport(reqsched.StrategyByName("A_fix"), tr.Model); err == nil {
		t.Error("CheckModelSupport must reject A_fix under hold=2")
	}
	if _, err := core.RunChecked(reqsched.StrategyByName("compose,router=greedy"), tr); err != nil {
		t.Errorf("greedy router must run under hold=2: %v", err)
	}
	// Any capacity is fine at hold=1: one-round slots stay independent, so
	// the matching-based planners remain correct.
	if err := core.CheckModelSupport(reqsched.StrategyByName("A_balance"), core.ServiceModel{Cap: 3}); err != nil {
		t.Errorf("A_balance must accept hold=1,cap=3: %v", err)
	}
}
