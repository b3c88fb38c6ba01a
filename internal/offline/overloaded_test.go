package offline

import (
	"math/rand"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/strategies"
	"reqsched/internal/workload"
)

func TestOverloadedSetsEmptyWhenAllServed(t *testing.T) {
	b := core.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 0)
	tr := b.Build()
	res := core.Run(strategies.NewBalance(), tr)
	if ovs := OverloadedSets(tr, res.Log); len(ovs) != 0 {
		t.Fatalf("no failures but %d overloads", len(ovs))
	}
}

func TestOverloadedSetsClosure(t *testing.T) {
	// The set must be closed: the alternatives of every same-round request
	// served inside S are inside S.
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(6), 8)
		res := core.Run(strategies.NewFix(), tr)
		served := map[int]*core.Fulfillment{}
		for i := range res.Log {
			served[res.Log[i].Req.ID] = &res.Log[i]
		}
		for _, ov := range OverloadedSets(tr, res.Log) {
			inS := map[int]bool{}
			for _, r := range ov.Resources {
				inS[r] = true
			}
			// Failed requests' alternatives are in S.
			for _, r := range ov.Failed {
				for _, a := range r.Alts {
					if !inS[a] {
						t.Fatalf("trial %d: failed %v alternative %d outside S", trial, r, a)
					}
				}
			}
			// Closure over same-round scheduled requests.
			for i := range tr.Arrivals[ov.Round] {
				req := &tr.Arrivals[ov.Round][i]
				f := served[req.ID]
				if f == nil || !inS[f.Res] {
					continue
				}
				for _, a := range req.Alts {
					if !inS[a] {
						t.Fatalf("trial %d: closure violated at resource %d", trial, a)
					}
				}
			}
		}
	}
}

func TestTheorem33ClaimsOnAFix(t *testing.T) {
	// Claim (1): on every A_fix execution with uniform windows, every
	// resource of an overloaded set serves a cohort request in its last
	// window slot. Claim (2): the optimum cannot serve more than (d-1)|S|
	// of the failed requests; since OPT-ALG equals the number of augmenting
	// paths, the failed-and-OPT-servable count per round is bounded by the
	// total (d-1)·sum|S|.
	for seed := int64(0); seed < 8; seed++ {
		tr := workload.Uniform(workload.Config{N: 5, D: 3, Rounds: 25, Rate: 9, Seed: seed})
		res := core.Run(strategies.NewFix(), tr)
		ovs := OverloadedSets(tr, res.Log)
		capacity := 0
		failed := 0
		for _, ov := range ovs {
			if !lastSlotUsedByCohort(tr, res.Log, ov, tr.D) {
				t.Fatalf("seed %d round %d: overloaded resource idle in last cohort slot",
					seed, ov.Round)
			}
			capacity += (tr.D - 1) * len(ov.Resources)
			failed += len(ov.Failed)
		}
		// The proof's capacity argument: even OPT cannot recover more than
		// (d-1)|S| failed requests per round, hence in total.
		loss := Optimum(tr) - res.Fulfilled
		if loss > capacity {
			t.Fatalf("seed %d: OPT recovers %d failed requests, capacity bound %d",
				seed, loss, capacity)
		}
		if failed < loss {
			t.Fatalf("seed %d: accounting broken: %d failed < %d loss", seed, failed, loss)
		}
	}
}

func TestTheorem33ClaimsOnAdversarialTrace(t *testing.T) {
	// Same claims on the Theorem 2.1 input itself: per phase the overloaded
	// set is exactly {S2, S3} and 2d-2... the failed block requests' set.
	d := 4
	b := core.NewBuilder(4, d)
	b.Block(0, 1, 2)
	for p := 1; p <= 6; p++ {
		t0 := p*d - 1
		for i := 0; i < d-1; i++ {
			b.Add(t0, 1, 0)
			b.Add(t0, 2, 3)
		}
		b.Block(t0+1, 1, 2)
	}
	tr := b.Build()
	res := core.Run(strategies.NewFix(), tr)
	ovs := OverloadedSets(tr, res.Log)
	if len(ovs) == 0 {
		t.Fatal("adversarial trace produced no overloads")
	}
	for _, ov := range ovs {
		if !lastSlotUsedByCohort(tr, res.Log, ov, d) {
			t.Fatalf("round %d: claim (1) violated", ov.Round)
		}
		// The failed requests are block requests on (S2, S3) = {1, 2}.
		for _, r := range ov.Resources {
			if r != 1 && r != 2 {
				t.Fatalf("round %d: unexpected overloaded resource %d", ov.Round, r)
			}
		}
		if len(ov.Failed) != 2*d-2 {
			t.Fatalf("round %d: %d failed, want %d", ov.Round, len(ov.Failed), 2*d-2)
		}
	}
}

// lastSlotUsedByCohort reports, for an overload at round t, whether every
// resource of S serves a round-t request in its last window slot t+d-1 —
// claim (1) of the Theorem 3.3 proof for A_fix. d is the uniform window of
// the failed requests' cohort (the claim is stated for uniform windows).
func lastSlotUsedByCohort(tr *core.Trace, log []core.Fulfillment, ov Overload, d int) bool {
	type slot = [2]int
	bySlot := make(map[slot]*core.Request)
	for i := range log {
		bySlot[slot{log[i].Res, log[i].Round}] = log[i].Req
	}
	for _, res := range ov.Resources {
		r := bySlot[slot{res, ov.Round + d - 1}]
		if r == nil || r.Arrive != ov.Round {
			return false
		}
	}
	return true
}
