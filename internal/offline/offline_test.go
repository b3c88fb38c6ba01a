package offline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"reqsched/internal/core"
	"reqsched/internal/matching"
)

// randomTrace builds a random two-choice trace.
func randomTrace(rng *rand.Rand, n, d, rounds, perRound int) *core.Trace {
	b := core.NewBuilder(n, d)
	for t := 0; t < rounds; t++ {
		k := rng.Intn(perRound + 1)
		for i := 0; i < k; i++ {
			a := rng.Intn(n)
			c := rng.Intn(n - 1)
			if c >= a {
				c++
			}
			b.Add(t, a, c)
		}
	}
	return b.Build()
}

// randomSingleChoiceTrace builds a trace where every request names one
// resource, with mixed deadlines.
func randomSingleChoiceTrace(rng *rand.Rand, n, maxD, rounds, perRound int) *core.Trace {
	b := core.NewBuilder(n, maxD)
	for t := 0; t < rounds; t++ {
		k := rng.Intn(perRound + 1)
		for i := 0; i < k; i++ {
			b.AddWindow(t, 1+rng.Intn(maxD), rng.Intn(n))
		}
	}
	return b.Build()
}

func TestOptimumTinyByHand(t *testing.T) {
	// 1 resource, d=1: three identical requests in one round, one slot.
	b := core.NewBuilder(1, 1)
	b.Add(0, 0)
	b.Add(0, 0)
	b.Add(0, 0)
	if got := Optimum(b.Build()); got != 1 {
		t.Fatalf("optimum %d want 1", got)
	}
	// 2 resources, d=2: four requests naming both — perfect fit.
	b2 := core.NewBuilder(2, 2)
	for i := 0; i < 4; i++ {
		b2.Add(0, 0, 1)
	}
	if got := Optimum(b2.Build()); got != 4 {
		t.Fatalf("optimum %d want 4", got)
	}
	// ...and a fifth must be lost.
	b2.Add(0, 0, 1)
	if got := Optimum(b2.Build()); got != 4 {
		t.Fatalf("optimum %d want 4", got)
	}
}

func TestOptimumBlockSaturates(t *testing.T) {
	// block(a, d) is exactly serviceable by its a resources over d rounds.
	for _, a := range []int{2, 3, 6} {
		for _, d := range []int{2, 3, 5} {
			b := core.NewBuilder(a, d)
			res := make([]int, a)
			for i := range res {
				res[i] = i
			}
			b.Block(0, res...)
			tr := b.Build()
			if got := Optimum(tr); got != a*d {
				t.Fatalf("block(%d,%d): optimum %d want %d", a, d, got, a*d)
			}
		}
	}
}

// optimumByFlow recomputes the optimum with Dinic max-flow — an independent
// implementation that cross-checks Optimum.
func optimumByFlow(tr *core.Trace) int {
	return matching.MaxMatchingByFlow(BuildGraph(tr))
}

func TestOptimumEqualsFlowCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(8), 6)
		opt := Optimum(tr)
		fl := optimumByFlow(tr)
		if opt != fl {
			t.Fatalf("trial %d: Optimum %d != flow %d", trial, opt, fl)
		}
	}
}

func TestOptimumScheduleIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		tr := randomTrace(rng, 3, 3, 6, 5)
		log := OptimumSchedule(tr)
		if err := core.ValidateLog(tr, log); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(log) != Optimum(tr) {
			t.Fatalf("trial %d: schedule size %d != optimum", trial, len(log))
		}
	}
}

func TestSlotIndexRoundTrip(t *testing.T) {
	f := func(res, tt uint8, n uint8) bool {
		nn := int(n%7) + 1
		r := int(res) % nn
		tm := int(tt)
		idx := SlotIndex(nn, r, tm)
		return idx%nn == r && idx/nn == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEDFSingleChoiceIsOptimal(t *testing.T) {
	// Observation 3.1: with one alternative per request, EDF fulfills as many
	// requests as the offline optimum — even with mixed deadlines.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		tr := randomSingleChoiceTrace(rng, 1+rng.Intn(4), 1+rng.Intn(5), 1+rng.Intn(10), 5)
		edf := EarliestDeadlineSchedule(tr)
		opt := Optimum(tr)
		if edf != opt {
			t.Fatalf("trial %d: EDF %d != OPT %d (n=%d)", trial, edf, opt, tr.N)
		}
	}
}

func TestEDFScheduleNeverBeatsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(8), 5)
		if e, o := EarliestDeadlineSchedule(tr), Optimum(tr); e > o {
			t.Fatalf("trial %d: EDF-style greedy %d exceeds OPT %d", trial, e, o)
		}
	}
}

func TestBuildGraphEdgeOrder(t *testing.T) {
	// A request arriving at t=1 with alts (2, 0) and d=2 must list slots
	// (2,1),(2,2),(0,1),(0,2) in that order.
	b := core.NewBuilder(3, 2)
	b.Add(1, 2, 0)
	tr := b.Build()
	g := BuildGraph(tr)
	adj := g.Adj(0)
	want := []int{
		SlotIndex(3, 2, 1), SlotIndex(3, 2, 2),
		SlotIndex(3, 0, 1), SlotIndex(3, 0, 2),
	}
	if len(adj) != len(want) {
		t.Fatalf("adjacency %v", adj)
	}
	for i := range want {
		if int(adj[i]) != want[i] {
			t.Fatalf("edge %d: got %d want %d", i, adj[i], want[i])
		}
	}
	if g.NRight() != tr.Horizon()*tr.N {
		t.Fatalf("right side %d", g.NRight())
	}
	_ = matching.None
}

func TestOptimumMinLatencyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 30; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(6), 5)
		log, latency := OptimumMinLatency(tr)
		if err := core.ValidateLog(tr, log); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(log) != Optimum(tr) {
			t.Fatalf("trial %d: min-latency schedule size %d != optimum %d",
				trial, len(log), Optimum(tr))
		}
		// Latency must be no worse than the plain optimum's latency.
		plainLatency := 0
		for _, f := range OptimumSchedule(tr) {
			plainLatency += f.Round - f.Req.Arrive
		}
		if latency > plainLatency {
			t.Fatalf("trial %d: min-latency %d > plain optimum's latency %d", trial, latency, plainLatency)
		}
		// Recompute the reported latency from the log.
		sum := 0
		for _, f := range log {
			sum += f.Round - f.Req.Arrive
		}
		if sum != latency {
			t.Fatalf("trial %d: reported latency %d, log says %d", trial, latency, sum)
		}
	}
}

func TestOptimumMinLatencyServesEagerly(t *testing.T) {
	// One resource, two rounds, one flexible request: it must be served at
	// round 0, not 1.
	b := core.NewBuilder(1, 2)
	b.Add(0, 0)
	tr := b.Build()
	log, latency := OptimumMinLatency(tr)
	if len(log) != 1 || log[0].Round != 0 || latency != 0 {
		t.Fatalf("log %+v latency %d", log, latency)
	}
}

func TestOptimumMonotoneInRequests(t *testing.T) {
	// Adding requests never decreases the offline optimum: the competitive
	// accounting implicitly relies on this. Built incrementally round by
	// round.
	rng := rand.New(rand.NewSource(122))
	for trial := 0; trial < 25; trial++ {
		b := core.NewBuilder(3, 3)
		prev := 0
		for t0 := 0; t0 < 8; t0++ {
			for i := 0; i < 1+rng.Intn(3); i++ {
				a := rng.Intn(3)
				c := (a + 1 + rng.Intn(2)) % 3
				b.Add(t0, a, c)
			}
			opt := Optimum(b.Build())
			if opt < prev {
				t.Fatalf("trial %d: OPT dropped from %d to %d after adding requests", trial, prev, opt)
			}
			prev = opt
		}
	}
}

func TestOptimumBoundedByCapacityAndDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(8), 6)
		opt := Optimum(tr)
		if opt > tr.NumRequests() {
			t.Fatalf("OPT %d exceeds demand %d", opt, tr.NumRequests())
		}
		if opt > tr.N*tr.Horizon() {
			t.Fatalf("OPT %d exceeds capacity %d", opt, tr.N*tr.Horizon())
		}
	}
}
