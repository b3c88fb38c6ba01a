package core

import (
	"strings"
	"testing"
)

func TestBuilderAssignsSequentialIDs(t *testing.T) {
	b := NewBuilder(4, 3)
	b.Add(0, 0, 1)
	b.Add(0, 2, 3)
	b.Add(1, 1, 2)
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumRequests() != 3 {
		t.Fatalf("got %d requests", tr.NumRequests())
	}
	reqs := tr.Requests()
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
	}
	if reqs[2].Arrive != 1 {
		t.Fatalf("third request arrives at %d", reqs[2].Arrive)
	}
}

func TestBuilderOutOfOrderRoundsRenumbered(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(5, 0, 1)
	b.Add(1, 1, 0)
	b.Add(5, 1, 0)
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	reqs := tr.Requests()
	if reqs[0].Arrive != 1 || reqs[1].Arrive != 5 || reqs[2].Arrive != 5 {
		t.Fatalf("arrival order broken: %v %v %v", reqs[0], reqs[1], reqs[2])
	}
	// Within round 5, Add order preserved: first-added has alts (0,1).
	if reqs[1].Alts[0] != 0 {
		t.Fatal("injection order within round not preserved")
	}
}

func TestBuilderBlock(t *testing.T) {
	b := NewBuilder(6, 4)
	b.Block(0, 2, 3)
	tr := b.Build()
	if tr.NumRequests() != 8 { // block(2, 4) = 2*4 requests
		t.Fatalf("block(2,4) has %d requests", tr.NumRequests())
	}
	// block(3, d) over resources 0,1,2.
	b2 := NewBuilder(6, 2)
	b2.Block(0, 0, 1, 2)
	tr2 := b2.Build()
	if tr2.NumRequests() != 6 {
		t.Fatalf("block(3,2) has %d requests", tr2.NumRequests())
	}
	// Group i is directed to res[i], res[i+1 mod a].
	r := tr2.Requests()[4] // third group, first request
	if r.Alts[0] != 2 || r.Alts[1] != 0 {
		t.Fatalf("wraparound group alts %v", r.Alts)
	}
}

func TestTraceValidateCatchesBadAlts(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	tr := b.Build()
	tr.Arrivals[0][0].Alts = []int{0, 0}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("want repeat error, got %v", err)
	}
	tr.Arrivals[0][0].Alts = []int{0, 5}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("want range error, got %v", err)
	}
}

func TestTraceHorizonCoversDeadlines(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(4, 0, 1) // deadline 6
	tr := b.Build()
	if h := tr.Horizon(); h != 7 {
		t.Fatalf("horizon %d want 7", h)
	}
	if tr.MaxD() != 3 {
		t.Fatalf("MaxD %d", tr.MaxD())
	}
}

func TestRequestOther(t *testing.T) {
	r := &Request{ID: 0, Alts: []int{3, 7}, D: 1}
	if r.Other(3) != 7 || r.Other(7) != 3 {
		t.Fatal("Other broken")
	}
}

func TestWindowAssignUnassign(t *testing.T) {
	w := NewWindow(2, 3)
	r := &Request{ID: 0, Arrive: 0, Alts: []int{0, 1}, D: 3}
	w.Assign(r, 0, 1)
	if w.Free(0, 1) {
		t.Fatal("slot should be taken")
	}
	if res, round, ok := w.AssignmentOf(r); !ok || res != 0 || round != 1 {
		t.Fatalf("AssignmentOf: %d %d %v", res, round, ok)
	}
	w.Unassign(r)
	if !w.Free(0, 1) || w.Assigned(r) {
		t.Fatal("unassign failed")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestWindowRejectsInvalidAssignments(t *testing.T) {
	w := NewWindow(2, 2)
	r := &Request{ID: 0, Arrive: 0, Alts: []int{0, 1}, D: 2}
	mustPanic(t, "past deadline", func() {
		w2 := NewWindow(2, 5)
		short := &Request{ID: 1, Arrive: 0, Alts: []int{0}, D: 1}
		w2.Assign(short, 0, 1)
	})
	mustPanic(t, "outside window", func() { w.Assign(r, 0, 2) })
	mustPanic(t, "non-alternative", func() {
		o := &Request{ID: 2, Arrive: 0, Alts: []int{1}, D: 2}
		w.Assign(o, 0, 0)
	})
	w.Assign(r, 0, 0)
	mustPanic(t, "occupied slot", func() {
		o := &Request{ID: 3, Arrive: 0, Alts: []int{0, 1}, D: 2}
		w.Assign(o, 0, 0)
	})
	mustPanic(t, "double assign", func() { w.Assign(r, 1, 1) })
}

func TestWindowFreeSlotsForPreferenceOrder(t *testing.T) {
	w := NewWindow(3, 3)
	r := &Request{ID: 0, Arrive: 0, Alts: []int{2, 0}, D: 3}
	blocker := &Request{ID: 1, Arrive: 0, Alts: []int{2}, D: 3}
	w.Assign(blocker, 2, 0)
	slots := w.FreeSlotsFor(r)
	// First alternative (2) rounds 1,2 then second alternative (0) rounds 0,1,2.
	want := []Assignment{{r, 2, 1}, {r, 2, 2}, {r, 0, 0}, {r, 0, 1}, {r, 0, 2}}
	if len(slots) != len(want) {
		t.Fatalf("got %d slots want %d", len(slots), len(want))
	}
	for i := range want {
		if slots[i].Res != want[i].Res || slots[i].Round != want[i].Round {
			t.Fatalf("slot %d: got (%d,%d) want (%d,%d)",
				i, slots[i].Res, slots[i].Round, want[i].Res, want[i].Round)
		}
	}
}

func TestWindowFreeSlotsForClipsToDeadline(t *testing.T) {
	w := NewWindow(1, 5)
	r := &Request{ID: 0, Arrive: 0, Alts: []int{0}, D: 2}
	slots := w.FreeSlotsFor(r)
	if len(slots) != 2 {
		t.Fatalf("got %d slots want 2 (deadline clip)", len(slots))
	}
}

func TestWindowSnapshotAndReset(t *testing.T) {
	w := NewWindow(2, 2)
	a := &Request{ID: 0, Arrive: 0, Alts: []int{0, 1}, D: 2}
	bq := &Request{ID: 1, Arrive: 0, Alts: []int{1, 0}, D: 2}
	w.Assign(a, 0, 1)
	w.Assign(bq, 1, 0)
	snap := w.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot %d", len(snap))
	}
	// Deterministic order: ascending (round, resource).
	if snap[0].Req.ID != 1 || snap[1].Req.ID != 0 {
		t.Fatalf("snapshot order: %v", snap)
	}
	w.Reset()
	if len(w.Snapshot()) != 0 || w.Assigned(a) {
		t.Fatal("reset incomplete")
	}
}

// greedyFirstFit is a trivial strategy used to exercise the engine: it
// assigns each new arrival to its first free slot and never reschedules.
type greedyFirstFit struct{}

func (greedyFirstFit) Name() string   { return "greedy-first-fit" }
func (greedyFirstFit) Begin(n, d int) {}
func (greedyFirstFit) Round(ctx *RoundContext) {
	for _, r := range ctx.Arrivals {
		if slots := ctx.W.FreeSlotsFor(r); len(slots) > 0 {
			ctx.W.Assign(r, slots[0].Res, slots[0].Round)
		}
	}
}

func TestEngineServesAndExpires(t *testing.T) {
	b := NewBuilder(2, 2)
	// Round 0: 5 requests all wanting resources 0 and 1. Capacity over two
	// rounds is 4, so exactly one expires.
	for i := 0; i < 5; i++ {
		b.Add(0, 0, 1)
	}
	tr := b.Build()
	res := Run(greedyFirstFit{}, tr)
	if res.Fulfilled != 4 || res.Expired != 1 {
		t.Fatalf("fulfilled=%d expired=%d", res.Fulfilled, res.Expired)
	}
	if err := ValidateLog(tr, res.Log); err != nil {
		t.Fatal(err)
	}
	if res.PerResource[0]+res.PerResource[1] != 4 {
		t.Fatalf("per-resource %v", res.PerResource)
	}
}

func TestEngineLatencyAccounting(t *testing.T) {
	b := NewBuilder(1, 3)
	b.Add(0, 0) // served round 0: latency 0
	b.Add(0, 0) // served round 1: latency 1
	b.Add(0, 0) // served round 2: latency 2
	tr := b.Build()
	res := Run(greedyFirstFit{}, tr)
	if res.Fulfilled != 3 || res.LatencySum != 3 {
		t.Fatalf("fulfilled=%d latencySum=%d", res.Fulfilled, res.LatencySum)
	}
	if res.MeanLatency() != 1.0 {
		t.Fatalf("mean latency %f", res.MeanLatency())
	}
}

func TestEngineEmptyTrace(t *testing.T) {
	tr := NewBuilder(3, 2).Build()
	res := Run(greedyFirstFit{}, tr)
	if res.Fulfilled != 0 || res.Expired != 0 || res.Requests != 0 {
		t.Fatalf("empty trace result %+v", res)
	}
}

func TestEngineMixedDeadlines(t *testing.T) {
	b := NewBuilder(1, 4)
	b.AddWindow(0, 1, 0) // must be served at round 0
	b.AddWindow(0, 4, 0) // flexible
	tr := b.Build()
	res := Run(greedyFirstFit{}, tr)
	// greedyFirstFit serves ID 0 at round 0 (its only slot), ID 1 at round 1.
	if res.Fulfilled != 2 {
		t.Fatalf("fulfilled=%d", res.Fulfilled)
	}
	if err := ValidateLog(tr, res.Log); err != nil {
		t.Fatal(err)
	}
}

func TestValidateLogCatchesViolations(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	tr := b.Build()
	r := tr.Requests()[0]

	if err := ValidateLog(tr, []Fulfillment{{r, 0, 0}, {r, 1, 1}}); err == nil {
		t.Fatal("double service undetected")
	}
	if err := ValidateLog(tr, []Fulfillment{{r, 0, 5}}); err == nil {
		t.Fatal("late service undetected")
	}
	b2 := NewBuilder(2, 2)
	b2.Add(0, 0, 1)
	b2.Add(0, 0, 1)
	tr2 := b2.Build()
	r0, r1 := tr2.Requests()[0], tr2.Requests()[1]
	if err := ValidateLog(tr2, []Fulfillment{{r0, 0, 0}, {r1, 0, 0}}); err == nil {
		t.Fatal("slot collision undetected")
	}
	if err := ValidateLog(tr2, []Fulfillment{{r0, 0, 0}, {r1, 1, 0}}); err != nil {
		t.Fatalf("valid log rejected: %v", err)
	}
}

func TestRoundContextUnassigned(t *testing.T) {
	// Strategy that checks Unassigned midway: assign only the first arrival.
	var observed int
	s := strategyFunc{
		name: "probe",
		round: func(ctx *RoundContext) {
			if len(ctx.Arrivals) > 0 {
				r := ctx.Arrivals[0]
				slots := ctx.W.FreeSlotsFor(r)
				ctx.W.Assign(r, slots[0].Res, slots[0].Round)
			}
			observed = len(ctx.Unassigned())
		},
	}
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 1)
	b.Add(0, 0, 1)
	Run(s, b.Build())
	_ = observed
}

type strategyFunc struct {
	name  string
	round func(*RoundContext)
}

func (s strategyFunc) Name() string            { return s.name }
func (s strategyFunc) Begin(n, d int)          {}
func (s strategyFunc) Round(ctx *RoundContext) { s.round(ctx) }

func TestRunWithSeriesMatchesRun(t *testing.T) {
	b := NewBuilder(3, 2)
	for t0 := 0; t0 < 10; t0++ {
		for i := 0; i <= t0%3; i++ {
			b.Add(t0, i%3, (i+1)%3)
		}
	}
	tr := b.Build()
	direct := Run(greedyFirstFit{}, tr)
	instrumented, series := RunWithSeries(greedyFirstFit{}, tr)
	if direct.Fulfilled != instrumented.Fulfilled || direct.Expired != instrumented.Expired {
		t.Fatalf("instrumentation changed the run: %d/%d vs %d/%d",
			direct.Fulfilled, direct.Expired, instrumented.Fulfilled, instrumented.Expired)
	}
	if len(series.Rounds) != tr.Horizon() {
		t.Fatalf("series has %d rounds, horizon %d", len(series.Rounds), tr.Horizon())
	}
	var arrived, servedTotal, expired, idle int
	for _, r := range series.Rounds {
		arrived += r.Arrived
		servedTotal += r.Served
		expired += r.Expired
		idle += r.Idle
		if r.Backlog > r.Pending {
			t.Fatalf("round %d: backlog %d exceeds pending %d", r.T, r.Backlog, r.Pending)
		}
	}
	if arrived != tr.NumRequests() {
		t.Fatalf("series arrived %d != %d", arrived, tr.NumRequests())
	}
	if servedTotal != direct.Fulfilled {
		t.Fatalf("series served %d != %d", servedTotal, direct.Fulfilled)
	}
	if expired != direct.Expired {
		t.Fatalf("series expired %d != %d", expired, direct.Expired)
	}
	if servedTotal+idle != tr.N*tr.Horizon() {
		t.Fatalf("served %d + idle %d != capacity %d", servedTotal, idle, tr.N*tr.Horizon())
	}
	// Last round must drain everything.
	last := series.Rounds[len(series.Rounds)-1]
	if last.Pending != 0 {
		t.Fatalf("pending %d after horizon", last.Pending)
	}
}

func TestRunCheckedRejectsInvalidTrace(t *testing.T) {
	// A trace naming a resource outside [0, N) — the shape a hand-edited
	// trace file takes after deserialization — must come back as an error
	// naming the offending request, not a panic.
	tr := &Trace{N: 2, D: 2, Arrivals: [][]Request{
		{{ID: 0, Arrive: 0, D: 2, Alts: []int{5}}},
	}}
	res, err := RunChecked(greedyFirstFit{}, tr)
	if err == nil {
		t.Fatal("RunChecked accepted an invalid trace")
	}
	if res != nil {
		t.Fatalf("RunChecked returned a result alongside the error: %+v", res)
	}
	if !strings.Contains(err.Error(), "resource 5") {
		t.Fatalf("error %q does not name the offending resource", err)
	}
}

func TestRunCheckedMatchesRun(t *testing.T) {
	tr := twoReqTrace()
	direct := Run(greedyFirstFit{}, tr)
	checked, err := RunChecked(greedyFirstFit{}, tr)
	if err != nil {
		t.Fatalf("RunChecked on a valid trace: %v", err)
	}
	if checked.Fulfilled != direct.Fulfilled || checked.Expired != direct.Expired {
		t.Fatalf("checked run diverged: %+v vs %+v", checked, direct)
	}
}
