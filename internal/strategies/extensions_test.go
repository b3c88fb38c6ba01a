package strategies

import (
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/workload"
)

// Tests for the extensions the paper sketches: heterogeneous per-request
// deadlines ("the observation will also hold if the requests have different
// deadlines") and c >= 2 alternatives per request. The engine and the
// matching-based strategies support both without special-casing — these
// tests pin that down.

func TestAllStrategiesValidWithMixedDeadlines(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := workload.MixedDeadlines(workload.Config{
			N: 6, D: 5, Rounds: 40, Rate: 8, Seed: seed,
		})
		opt := offline.Optimum(tr)
		for _, s := range allStrategies() {
			res := core.Run(s, tr)
			if err := core.ValidateLog(tr, res.Log); err != nil {
				t.Fatalf("%s seed %d: %v", s.Name(), seed, err)
			}
			if res.Fulfilled > opt {
				t.Fatalf("%s seed %d: beats OPT", s.Name(), seed)
			}
			// EDF stays 2-competitive with heterogeneous deadlines
			// (Observation 3.2's extension); the other strategies are only
			// checked for validity and dominance since Table 1's proofs
			// assume a uniform window.
			if s.Name() == "EDF" {
				slack := float64(tr.N * tr.D)
				if float64(opt) > 2*float64(res.Fulfilled)+slack {
					t.Fatalf("EDF seed %d: OPT %d > 2*%d + %.0f", seed, opt, res.Fulfilled, slack)
				}
			}
		}
	}
}

func TestReschedulersBeatFixFamilyOnMixedDeadlines(t *testing.T) {
	// Sanity on ordering: the rescheduling strategies should not lose to
	// their fix-family counterparts across a batch of mixed-deadline
	// workloads (aggregate, not per-seed, since single seeds can tie).
	var fix, eager int
	for seed := int64(0); seed < 8; seed++ {
		tr := workload.MixedDeadlines(workload.Config{
			N: 5, D: 4, Rounds: 40, Rate: 8, Seed: seed,
		})
		fix += core.Run(NewFix(), tr).Fulfilled
		eager += core.Run(NewEager(), tr).Fulfilled
	}
	if eager < fix {
		t.Fatalf("A_eager total %d below A_fix total %d", eager, fix)
	}
}

func TestGlobalStrategiesHandleCAlternatives(t *testing.T) {
	// The matching-based strategies accept any number of alternatives per
	// request; with more choices service can only improve in aggregate.
	for _, c := range []int{1, 2, 3, 4} {
		tr := workload.CChoice(workload.Config{N: 6, D: 3, Rounds: 30, Rate: 9, Seed: 20}, c)
		opt := offline.Optimum(tr)
		for _, s := range global() {
			res := core.Run(s, tr)
			if err := core.ValidateLog(tr, res.Log); err != nil {
				t.Fatalf("%s c=%d: %v", s.Name(), c, err)
			}
			if res.Fulfilled > opt {
				t.Fatalf("%s c=%d beats OPT", s.Name(), c)
			}
		}
	}
}

func TestMoreChoicesServeMoreInAggregate(t *testing.T) {
	// With identical arrival patterns, raising c from 1 to 3 must not hurt
	// A_balance's aggregate throughput. (Not guaranteed per-seed by theory,
	// but a 10-seed aggregate regression would indicate a bug.)
	total := map[int]int{}
	for _, c := range []int{1, 3} {
		for seed := int64(0); seed < 10; seed++ {
			tr := workload.CChoice(workload.Config{N: 5, D: 2, Rounds: 30, Rate: 9, Seed: seed}, c)
			total[c] += core.Run(NewBalance(), tr).Fulfilled
		}
	}
	if total[3] < total[1] {
		t.Fatalf("3-choice total %d below 1-choice total %d", total[3], total[1])
	}
}

func TestSingleAlternativeNearOptimal(t *testing.T) {
	// With one alternative EDF is exactly optimal (Observation 3.1). The
	// maximum-matching strategies are *not* EDF — their oldest-first
	// tie-break can serve a relaxed old request ahead of an urgent young
	// one and lose to future arrivals — but each round's matching is
	// maximum over the known subgraph, so the loss stays marginal. Empirical
	// observation worth pinning: within 2% of OPT over these workloads,
	// while EDF hits OPT exactly.
	for seed := int64(0); seed < 6; seed++ {
		tr := workload.SingleChoice(workload.Config{N: 4, D: 4, Rounds: 30, Rate: 6, Seed: seed})
		opt := offline.Optimum(tr)
		if edf := core.Run(NewEDF(), tr); edf.Fulfilled != opt {
			t.Fatalf("EDF seed %d: %d != OPT %d", seed, edf.Fulfilled, opt)
		}
		for _, s := range []core.Strategy{NewBalance(), NewEager()} {
			res := core.Run(s, tr)
			if float64(res.Fulfilled) < 0.98*float64(opt) {
				t.Fatalf("%s seed %d: %d far below OPT %d", s.Name(), seed, res.Fulfilled, opt)
			}
		}
	}
}

func TestMixedDeadlineWindowDepthHandling(t *testing.T) {
	// A request with a window longer than the trace default must be
	// schedulable across its whole window (the engine sizes the window to
	// MaxD). Hand construction: default d=2 but one request with d=6.
	b := core.NewBuilder(1, 2)
	b.AddWindow(0, 6, 0)
	for i := 0; i < 3; i++ {
		b.AddWindow(0, 2, 0) // three short-deadline requests
	}
	tr := b.Build()
	res := core.Run(NewBalance(), tr)
	// Capacity rounds 0..5 on one resource: serve the two short ones in
	// rounds 0..1 (third expires) and the long one later.
	if res.Fulfilled != 3 {
		t.Fatalf("fulfilled %d want 3", res.Fulfilled)
	}
	long := tr.Requests()[0]
	for _, f := range res.Log {
		if f.Req.ID == long.ID && f.Round < 2 {
			t.Fatalf("long request served at %d, crowding out short ones", f.Round)
		}
	}
}

func TestRankingValidAndWithinTwo(t *testing.T) {
	// RANKING-style greedy never reschedules, so the maximal-matching
	// argument bounds it by 2 like the other greedy baselines.
	for seed := int64(0); seed < 4; seed++ {
		tr := workload.Uniform(workload.Config{N: 6, D: 3, Rounds: 30, Rate: 8, Seed: seed})
		s := NewRanking(seed + 100)
		res := core.Run(s, tr)
		if err := core.ValidateLog(tr, res.Log); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := offline.Optimum(tr)
		slack := float64(tr.N * tr.D)
		if float64(opt) > 2*float64(res.Fulfilled)+slack {
			t.Fatalf("seed %d: OPT %d > 2*%d + %.0f", seed, opt, res.Fulfilled, slack)
		}
	}
}

func TestRankingDeterministicPerSeed(t *testing.T) {
	tr := workload.Uniform(workload.Config{N: 5, D: 3, Rounds: 20, Rate: 7, Seed: 1})
	a := core.Run(NewRanking(7), tr)
	b := core.Run(NewRanking(7), tr)
	c := core.Run(NewRanking(8), tr)
	if a.Fulfilled != b.Fulfilled || len(a.Log) != len(b.Log) {
		t.Fatal("same seed differs")
	}
	_ = c // different seed may or may not differ; only determinism matters
}

func TestAllStrategiesHandleDEqualsOne(t *testing.T) {
	// d=1: every request must be served in its arrival round; the window
	// degenerates to a single row. All strategies must stay valid and the
	// matching ones optimal per round (the graph is one row).
	b := core.NewBuilder(3, 1)
	for t0 := 0; t0 < 8; t0++ {
		b.Add(t0, 0, 1)
		b.Add(t0, 1, 2)
		b.Add(t0, 0, 2)
		b.Add(t0, 2, 0) // fourth request: one must fail each round
	}
	tr := b.Build()
	opt := offline.Optimum(tr)
	if opt != 24 { // 3 per round
		t.Fatalf("opt %d", opt)
	}
	for _, s := range allStrategies() {
		res := core.Run(s, tr)
		if err := core.ValidateLog(tr, res.Log); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
	for _, s := range global() {
		res := core.Run(s, tr)
		if res.Fulfilled != opt {
			t.Fatalf("%s: %d != %d (per-round maximum matching at d=1)",
				s.Name(), res.Fulfilled, opt)
		}
	}
}

func TestStrategiesOnSingleResource(t *testing.T) {
	// n=1 degenerate: only single-alternative requests are possible.
	b := core.NewBuilder(1, 3)
	for t0 := 0; t0 < 5; t0++ {
		b.Add(t0, 0)
		b.Add(t0, 0)
	}
	tr := b.Build()
	opt := offline.Optimum(tr)
	for _, s := range global() {
		res := core.Run(s, tr)
		if err := core.ValidateLog(tr, res.Log); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Fulfilled > opt {
			t.Fatalf("%s beats OPT", s.Name())
		}
	}
}

func TestQuietRoundsBetweenBursts(t *testing.T) {
	// Long gaps with no arrivals: windows roll over repeatedly; assert the
	// ring buffer state stays clean across the gaps.
	b := core.NewBuilder(2, 3)
	b.Add(0, 0, 1)
	b.Add(50, 1, 0)
	b.Add(100, 0, 1)
	tr := b.Build()
	for _, s := range allStrategies() {
		res := core.Run(s, tr)
		if res.Fulfilled != 3 {
			t.Fatalf("%s: fulfilled %d of 3 across quiet gaps", s.Name(), res.Fulfilled)
		}
	}
}

func TestTrapMixSeparatesFixFromReschedulers(t *testing.T) {
	// The embedded Theorem 2.1 traps must hurt A_fix measurably more than
	// A_balance across seeds.
	var fixLoss, balLoss int
	for seed := int64(0); seed < 4; seed++ {
		tr := workload.TrapMix(workload.Config{N: 8, D: 4, Rounds: 60, Rate: 4, Seed: seed}, 10)
		fixLoss += core.Run(NewFix(), tr).Expired
		balLoss += core.Run(NewBalance(), tr).Expired
	}
	if fixLoss <= balLoss {
		t.Fatalf("traps did not separate: fix lost %d, balance lost %d", fixLoss, balLoss)
	}
}
