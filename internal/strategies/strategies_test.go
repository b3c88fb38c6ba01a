package strategies

import (
	"fmt"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/workload"
)

// upperBound wraps UpperBound, panicking on unknown names so tests cannot
// silently skip a strategy.
func upperBound(name string, d int) float64 {
	b, ok := UpperBound(name, d)
	if !ok {
		panic("unknown strategy " + name)
	}
	return b
}

// global returns fresh instances of the five global strategies of Table 1,
// in the table's row order.
func global() []core.Strategy {
	return []core.Strategy{NewFix(), NewCurrent(), NewFixBalance(), NewEager(), NewBalance()}
}

// allStrategies returns every strategy of the package under test, including
// the seeded random baseline.
func allStrategies() []core.Strategy {
	return append(global(), NewEDF(), NewEDFCoordinated(), NewFirstFit(), NewRandomFit(7))
}

// traces used across the validity and bound tests.
func testTraces(seed int64) map[string]*core.Trace {
	return map[string]*core.Trace{
		"uniform": workload.Uniform(workload.Config{
			N: 6, D: 3, Rounds: 40, Rate: 7, Seed: seed,
		}),
		"zipf": workload.Zipf(workload.Config{
			N: 8, D: 4, Rounds: 30, Rate: 10, Seed: seed,
		}, 1.5),
		"bursty": workload.Bursty(workload.Config{
			N: 5, D: 2, Rounds: 40, Rate: 2, Seed: seed,
		}, 3, 5, 12),
		"video": workload.VideoServer(workload.Config{
			N: 8, D: 5, Rounds: 30, Rate: 9, Seed: seed,
		}, 40, 1.3),
		"overload": workload.Uniform(workload.Config{
			N: 3, D: 2, Rounds: 25, Rate: 8, Seed: seed,
		}),
	}
}

func TestAllStrategiesProduceValidSchedules(t *testing.T) {
	for name, tr := range testTraces(100) {
		for _, s := range allStrategies() {
			res := core.Run(s, tr)
			if err := core.ValidateLog(tr, res.Log); err != nil {
				t.Fatalf("%s on %s: %v", s.Name(), name, err)
			}
			if res.Fulfilled+res.Expired != res.Requests {
				t.Fatalf("%s on %s: %d fulfilled + %d expired != %d requests",
					s.Name(), name, res.Fulfilled, res.Expired, res.Requests)
			}
		}
	}
}

func TestProvenUpperBoundsHoldOnRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for name, tr := range testTraces(200 + seed) {
			opt := offline.Optimum(tr)
			for _, s := range allStrategies() {
				res := core.Run(s, tr)
				bound := upperBound(s.Name(), tr.D)
				// The competitive definition allows an additive constant,
				// but a strategy that schedules idle-separated copies of an
				// input as it schedules one copy (core's
				// TestCopyInvariance) meets its bound with none, so none
				// is allowed here.
				if float64(opt) > bound*float64(res.Fulfilled) {
					t.Errorf("%s on %s (seed %d): OPT %d > %.3f * %d",
						s.Name(), name, seed, opt, bound, res.Fulfilled)
				}
				if res.Fulfilled > opt {
					t.Errorf("%s on %s: ALG %d beats OPT %d", s.Name(), name, res.Fulfilled, opt)
				}
			}
		}
	}
}

func TestStrategiesDeterministic(t *testing.T) {
	tr := workload.Uniform(workload.Config{N: 5, D: 3, Rounds: 30, Rate: 6, Seed: 42})
	for _, s := range allStrategies() {
		a := core.Run(s, tr)
		b := core.Run(s, tr)
		if a.Fulfilled != b.Fulfilled || len(a.Log) != len(b.Log) {
			t.Fatalf("%s not deterministic", s.Name())
		}
		for i := range a.Log {
			if a.Log[i] != b.Log[i] {
				t.Fatalf("%s log differs at %d", s.Name(), i)
			}
		}
	}
}

// fixNoRescheduleProbe wraps A_fix-family strategies and fails the test if an
// assignment ever moves or disappears (other than by being served).
type fixNoRescheduleProbe struct {
	inner core.Strategy
	t     *testing.T
	prev  map[int][2]int // request ID -> (res, round)
}

func (p *fixNoRescheduleProbe) Name() string   { return p.inner.Name() + "+probe" }
func (p *fixNoRescheduleProbe) Begin(n, d int) { p.prev = map[int][2]int{}; p.inner.Begin(n, d) }
func (p *fixNoRescheduleProbe) Round(ctx *core.RoundContext) {
	p.inner.Round(ctx)
	for id, loc := range p.prev {
		if loc[1] < ctx.T {
			delete(p.prev, id) // served in an earlier round
			continue
		}
		got := ctx.W.At(loc[0], loc[1])
		if got == nil || got.ID != id {
			p.t.Fatalf("%s moved request %d away from (%d,%d) at round %d",
				p.inner.Name(), id, loc[0], loc[1], ctx.T)
		}
	}
	for _, a := range ctx.W.Snapshot() {
		p.prev[a.Req.ID] = [2]int{a.Res, a.Round}
	}
}

func TestFixFamilyNeverReschedules(t *testing.T) {
	for _, inner := range []core.Strategy{NewFix(), NewFixBalance(), NewFirstFit()} {
		tr := workload.Uniform(workload.Config{N: 5, D: 4, Rounds: 30, Rate: 8, Seed: 11})
		core.Run(&fixNoRescheduleProbe{inner: inner, t: t}, tr)
	}
}

// keepScheduledProbe verifies the A_eager/A_balance invariant: the set of
// scheduled requests never shrinks within a round (previously scheduled
// requests may move but stay scheduled).
type keepScheduledProbe struct {
	inner core.Strategy
	t     *testing.T
	ids   map[int]bool
}

func (p *keepScheduledProbe) Name() string   { return p.inner.Name() + "+probe" }
func (p *keepScheduledProbe) Begin(n, d int) { p.ids = map[int]bool{}; p.inner.Begin(n, d) }
func (p *keepScheduledProbe) Round(ctx *core.RoundContext) {
	p.inner.Round(ctx)
	now := map[int]bool{}
	for _, a := range ctx.W.Snapshot() {
		now[a.Req.ID] = true
	}
	for id := range p.ids {
		if !now[id] {
			p.t.Fatalf("%s unscheduled request %d at round %d", p.inner.Name(), id, ctx.T)
		}
	}
	// Requests served at the end of this round leave the window; drop them.
	p.ids = map[int]bool{}
	for _, a := range ctx.W.Snapshot() {
		if a.Round > ctx.T {
			p.ids[a.Req.ID] = true
		}
	}
}

func TestEagerFamilyKeepsScheduledRequests(t *testing.T) {
	for _, inner := range []core.Strategy{NewEager(), NewBalance()} {
		for seed := int64(0); seed < 3; seed++ {
			tr := workload.Uniform(workload.Config{N: 5, D: 4, Rounds: 30, Rate: 8, Seed: seed})
			core.Run(&keepScheduledProbe{inner: inner, t: t}, tr)
		}
	}
}

func TestFixPrefersFirstListedAlternative(t *testing.T) {
	// Two requests, disjoint resources, no contention: both must land on
	// their first-listed alternative at the earliest slot.
	b := core.NewBuilder(4, 2)
	b.Add(0, 2, 0)
	b.Add(0, 3, 1)
	tr := b.Build()
	res := core.Run(NewFix(), tr)
	if res.Fulfilled != 2 {
		t.Fatalf("fulfilled %d", res.Fulfilled)
	}
	for _, f := range res.Log {
		if f.Res != f.Req.Alts[0] || f.Round != 0 {
			t.Fatalf("request %d served at (%d,%d), want first alternative at round 0",
				f.Req.ID, f.Res, f.Round)
		}
	}
}

func TestCurrentServesOnlyCurrentRound(t *testing.T) {
	// d requests on one resource pair: A_current serves 2 per round (one per
	// resource) because it never plans ahead — same totals as planning, but
	// pending requests stay live between rounds.
	b := core.NewBuilder(2, 3)
	for i := 0; i < 6; i++ {
		b.Add(0, 0, 1)
	}
	tr := b.Build()
	res := core.Run(NewCurrent(), tr)
	if res.Fulfilled != 6 {
		t.Fatalf("fulfilled %d want 6", res.Fulfilled)
	}
	perRound := map[int]int{}
	for _, f := range res.Log {
		perRound[f.Round]++
	}
	for r := 0; r < 3; r++ {
		if perRound[r] != 2 {
			t.Fatalf("round %d served %d, want 2", r, perRound[r])
		}
	}
}

func TestEagerReschedulingBeatsFixOnTheorem21Input(t *testing.T) {
	// One phase of the Theorem 2.1 construction: A_fix loses d-1 requests
	// per group because it cannot reschedule; A_eager recovers them.
	d := 4
	// Resources S1..S4 are indices 0..3.
	b2 := core.NewBuilder(4, d)
	b2.Block(0, 1, 2) // S2,S3 blocked
	for i := 0; i < d-1; i++ {
		b2.Add(d-1, 1, 0) // R1: S2 first, S1 second
		b2.Add(d-1, 2, 3) // R2: S3 first, S4 second
	}
	b2.Block(d, 1, 2) // second block on S2,S3
	tr2 := b2.Build()

	fix := core.Run(NewFix(), tr2)
	eager := core.Run(NewEager(), tr2)
	opt := offline.Optimum(tr2)
	if eager.Fulfilled <= fix.Fulfilled {
		t.Fatalf("eager %d should beat fix %d", eager.Fulfilled, fix.Fulfilled)
	}
	if eager.Fulfilled != opt {
		t.Logf("eager %d vs opt %d (informational)", eager.Fulfilled, opt)
	}
}

func TestEDFIndependentWastesSlotsCoordinatedDoesNot(t *testing.T) {
	// Two requests naming (0,1); independent EDF enqueues copies at both.
	// Round 0: resource 0 serves r0, resource 1 also picks r0's copy first?
	// Queues are (r0,r1) at both; res 0 serves r0; res 1's head r0 is now
	// served: independent wastes the slot, coordinated serves r1.
	b := core.NewBuilder(2, 1)
	b.Add(0, 0, 1)
	b.Add(0, 0, 1)
	tr := b.Build()
	ind := core.Run(NewEDF(), tr)
	coord := core.Run(NewEDFCoordinated(), tr)
	if ind.Fulfilled != 1 {
		t.Fatalf("independent EDF fulfilled %d want 1", ind.Fulfilled)
	}
	if coord.Fulfilled != 2 {
		t.Fatalf("coordinated EDF fulfilled %d want 2", coord.Fulfilled)
	}
}

func TestEDFCChoiceWithinCOfOptimum(t *testing.T) {
	// Observation 3.2 extension: with c alternatives EDF is c-competitive.
	for _, c := range []int{1, 2, 3} {
		for seed := int64(0); seed < 5; seed++ {
			tr := workload.CChoice(workload.Config{
				N: 6, D: 3, Rounds: 25, Rate: 8, Seed: seed,
			}, c)
			res := core.Run(NewEDF(), tr)
			opt := offline.Optimum(tr)
			// No additive slack: EDF is copy-invariant (see
			// TestProvenUpperBoundsHoldOnRandomWorkloads).
			if opt > c*res.Fulfilled {
				t.Errorf("c=%d seed=%d: OPT %d > %d * %d", c, seed, opt, c, res.Fulfilled)
			}
		}
	}
}

func TestEDFSingleChoiceOptimal(t *testing.T) {
	// Observation 3.1 on the full strategy implementation (not just the
	// offline helper): with one alternative EDF fulfills the optimum.
	for seed := int64(0); seed < 10; seed++ {
		tr := workload.SingleChoice(workload.Config{
			N: 4, D: 4, Rounds: 30, Rate: 6, Seed: seed,
		})
		res := core.Run(NewEDF(), tr)
		opt := offline.Optimum(tr)
		if res.Fulfilled != opt {
			t.Fatalf("seed %d: EDF %d != OPT %d", seed, res.Fulfilled, opt)
		}
	}
}

func TestBalanceAtLeastEagerOnSmoothLoad(t *testing.T) {
	// Informational comparison: on smooth random load the balance objective
	// should not hurt. Not a theorem; assert only that both stay within
	// their bounds and report the counts.
	tr := workload.Uniform(workload.Config{N: 6, D: 4, Rounds: 50, Rate: 6, Seed: 5})
	eager := core.Run(NewEager(), tr)
	balance := core.Run(NewBalance(), tr)
	opt := offline.Optimum(tr)
	t.Logf("opt=%d eager=%d balance=%d", opt, eager.Fulfilled, balance.Fulfilled)
	if eager.Fulfilled > opt || balance.Fulfilled > opt {
		t.Fatal("online beats offline optimum")
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range allStrategies() {
		if seen[s.Name()] {
			t.Fatalf("strategy name %q used twice", s.Name())
		}
		seen[s.Name()] = true
	}
	if len(seen) != 9 || !seen["A_fix"] || !seen["first_fit"] {
		t.Fatalf("strategies under test: %v", seen)
	}
}

func TestStrategiesScaleSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A larger run to catch accidental quadratic blowups and index bugs at
	// scale; validity checked end to end.
	tr := workload.Uniform(workload.Config{N: 20, D: 6, Rounds: 200, Rate: 25, Seed: 77})
	for _, s := range global() {
		res := core.Run(s, tr)
		if err := core.ValidateLog(tr, res.Log); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Fulfilled == 0 {
			t.Fatalf("%s served nothing", s.Name())
		}
	}
}

func ExampleNewBalance() {
	b := core.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 0)
	tr := b.Build()
	res := core.Run(NewBalance(), tr)
	fmt.Println(res.Fulfilled)
	// Output: 2
}

func TestStrategiesAreOnline(t *testing.T) {
	// The defining property of an online algorithm: its decisions through
	// round k depend only on arrivals up to round k. Truncate a trace after
	// round k and compare service logs on rounds < k — any divergence means
	// a strategy peeked at the future.
	full := workload.Uniform(workload.Config{N: 5, D: 3, Rounds: 24, Rate: 7, Seed: 31})
	const k = 12
	b := core.NewBuilder(full.N, full.D)
	for t0, rs := range full.Arrivals {
		if t0 >= k {
			break
		}
		for i := range rs {
			id := b.AddWindow(t0, rs[i].D, rs[i].Alts...)
			b.SetWeight(id, rs[i].W)
		}
	}
	truncated := b.Build()

	for _, s := range allStrategies() {
		if s.Name() == "random_fit" || s.Name() == "ranking" {
			// Seeded randomness consumes draws per arrival, so logs stay
			// aligned too — include them.
		}
		fullLog := core.Run(s, full).Log
		truncLog := core.Run(s, truncated).Log
		early := func(log []core.Fulfillment) []core.Fulfillment {
			var out []core.Fulfillment
			for _, f := range log {
				if f.Round < k {
					out = append(out, f)
				}
			}
			return out
		}
		fe, te := early(fullLog), early(truncLog)
		if len(fe) != len(te) {
			t.Fatalf("%s: served %d vs %d before round %d — future arrivals leaked",
				s.Name(), len(fe), len(te), k)
		}
		for i := range fe {
			if fe[i].Req.ID != te[i].Req.ID || fe[i].Res != te[i].Res || fe[i].Round != te[i].Round {
				t.Fatalf("%s: entry %d differs (%v vs %v) — future arrivals leaked",
					s.Name(), i, fe[i], te[i])
			}
		}
	}
}
