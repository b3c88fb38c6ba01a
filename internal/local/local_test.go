package local

import (
	"testing"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/workload"
)

func TestLocalFixExactlyTwoOnTheorem37(t *testing.T) {
	// Theorem 3.7: per interval OPT serves all 4d, A_local_fix serves 2d.
	for _, d := range []int{1, 2, 4, 8} {
		intervals := 25
		c := adversary.LocalFix(d, intervals)
		res := core.Run(NewFix(), c.Trace)
		if err := core.ValidateLog(c.Trace, res.Log); err != nil {
			t.Fatal(err)
		}
		opt := offline.Optimum(c.Trace)
		if opt != 4*d*intervals {
			t.Fatalf("d=%d: OPT=%d want %d", d, opt, 4*d*intervals)
		}
		if res.Fulfilled != 2*d*intervals {
			t.Fatalf("d=%d: ALG=%d want %d (ratio exactly 2)", d, res.Fulfilled, 2*d*intervals)
		}
	}
}

func TestLocalFixUsesTwoCommRoundsPerSchedulingRound(t *testing.T) {
	tr := workload.Uniform(workload.Config{N: 6, D: 3, Rounds: 30, Rate: 8, Seed: 1})
	res := core.Run(NewFix(), tr)
	roundsWithArrivals := 0
	for _, rs := range tr.Arrivals {
		if len(rs) > 0 {
			roundsWithArrivals++
		}
	}
	if res.CommRounds > 2*roundsWithArrivals {
		t.Fatalf("comm rounds %d exceed 2 per arrival round (%d)", res.CommRounds, roundsWithArrivals)
	}
	if res.Messages == 0 {
		t.Fatal("no messages accounted")
	}
}

func TestLocalFixWithinUpperBoundTwo(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := workload.Uniform(workload.Config{N: 5, D: 3, Rounds: 30, Rate: 8, Seed: seed})
		res := core.Run(NewFix(), tr)
		opt := offline.Optimum(tr)
		slack := float64(tr.N * tr.D)
		if float64(opt) > 2*float64(res.Fulfilled)+slack {
			t.Fatalf("seed %d: OPT %d > 2*%d + %.0f", seed, opt, res.Fulfilled, slack)
		}
	}
}

func TestLocalEagerValidAndWithinFiveThirds(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, mk := range []func() core.Strategy{
			func() core.Strategy { return NewEager() },
			func() core.Strategy { return NewEagerWide() },
		} {
			tr := workload.Uniform(workload.Config{N: 5, D: 4, Rounds: 30, Rate: 9, Seed: seed})
			s := mk()
			res := core.Run(s, tr)
			if err := core.ValidateLog(tr, res.Log); err != nil {
				t.Fatalf("%s seed %d: %v", s.Name(), seed, err)
			}
			opt := offline.Optimum(tr)
			slack := float64(tr.N * tr.D)
			if float64(opt) > 5.0/3.0*float64(res.Fulfilled)+slack {
				t.Fatalf("%s seed %d: OPT %d > 5/3*%d + %.0f",
					s.Name(), seed, opt, res.Fulfilled, slack)
			}
		}
	}
}

func TestLocalEagerWithinFiveThirdsOnAdversarialInputs(t *testing.T) {
	cases := []adversary.Construction{
		adversary.LocalFix(4, 20),
		adversary.Fix(4, 20),
		adversary.Eager(4, 20),
		adversary.FixBalance(4, 20),
	}
	for _, c := range cases {
		res := core.Run(NewEager(), c.Trace)
		if err := core.ValidateLog(c.Trace, res.Log); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		opt := offline.Optimum(c.Trace)
		slack := float64(c.Trace.N * c.Trace.D * 2)
		if float64(opt) > 5.0/3.0*float64(res.Fulfilled)+slack {
			t.Fatalf("on %s: OPT %d ALG %d exceeds 5/3", c.Name, opt, res.Fulfilled)
		}
	}
}

func TestLocalEagerBeatsLocalFixOnTheorem37(t *testing.T) {
	// The rescheduling phases must recover part of R3 that A_local_fix
	// loses entirely.
	c := adversary.LocalFix(4, 25)
	fix := core.Run(NewFix(), c.Trace)
	eager := core.Run(NewEager(), c.Trace)
	if eager.Fulfilled <= fix.Fulfilled {
		t.Fatalf("local eager %d should beat local fix %d", eager.Fulfilled, fix.Fulfilled)
	}
}

func TestLocalEagerCommRoundBudget(t *testing.T) {
	tr := workload.Uniform(workload.Config{N: 6, D: 4, Rounds: 40, Rate: 10, Seed: 3})
	horizon := tr.Horizon()
	res := core.Run(NewEager(), tr)
	if res.CommRounds > 9*horizon {
		t.Fatalf("comm rounds %d exceed 9 per scheduling round (%d rounds)", res.CommRounds, horizon)
	}
	// The wide variant does not overlap Phase 2 with Phase 3, so it uses
	// exactly A_local_eager's rounds. Implementing the paper's overlap must
	// update this pin.
	wide := core.Run(NewEagerWide(), tr)
	if wide.CommRounds != res.CommRounds {
		t.Fatalf("wide variant comm rounds %d, A_local_eager %d; want equal", wide.CommRounds, res.CommRounds)
	}
}

func TestLocalEagerNoIdleCurrentSlotWithPulledRequest(t *testing.T) {
	// Phase 2 property: if a resource's current slot is idle at service time
	// while some request scheduled at a *future* slot of another resource
	// names it, Phase 2 should have moved one such request forward. We
	// verify a weaker, checkable form: on a two-resource workload where one
	// resource is systematically preferred, the other resource still serves
	// requests (pull-forward works).
	b := core.NewBuilder(2, 3)
	for t0 := 0; t0 < 10; t0++ {
		// Two requests per round, both listing resource 0 first.
		b.Add(t0, 0, 1)
		b.Add(t0, 0, 1)
	}
	tr := b.Build()
	res := core.Run(NewEager(), tr)
	if res.PerResource[1] == 0 {
		t.Fatal("phase 2 never moved a request to the idle resource")
	}
	if res.Fulfilled != tr.NumRequests() {
		t.Fatalf("fulfilled %d of %d; pull-forward should serve all", res.Fulfilled, tr.NumRequests())
	}
}

func TestLocalStrategiesDeterministic(t *testing.T) {
	tr := workload.Zipf(workload.Config{N: 6, D: 3, Rounds: 25, Rate: 8, Seed: 9}, 1.4)
	for _, mk := range []func() core.Strategy{
		func() core.Strategy { return NewFix() },
		func() core.Strategy { return NewEager() },
	} {
		a := core.Run(mk(), tr)
		b := core.Run(mk(), tr)
		if a.Fulfilled != b.Fulfilled || a.CommRounds != b.CommRounds || a.Messages != b.Messages {
			t.Fatalf("%s not deterministic", mk().Name())
		}
	}
}

func TestLocalFixSingleAlternativeRequests(t *testing.T) {
	// Requests with one alternative are legal: they only get the first
	// communication round.
	b := core.NewBuilder(2, 2)
	b.Add(0, 0)
	b.Add(0, 0)
	b.Add(0, 0) // third cannot fit (2 slots on resource 0)
	tr := b.Build()
	res := core.Run(NewFix(), tr)
	if res.Fulfilled != 2 {
		t.Fatalf("fulfilled %d want 2", res.Fulfilled)
	}
}

func TestLocalEagerMixedDeadlines(t *testing.T) {
	b := core.NewBuilder(3, 4)
	b.AddWindow(0, 1, 0, 1)
	b.AddWindow(0, 4, 0, 1)
	b.AddWindow(0, 2, 1, 2)
	b.AddWindow(1, 3, 2, 0)
	tr := b.Build()
	res := core.Run(NewEager(), tr)
	if err := core.ValidateLog(tr, res.Log); err != nil {
		t.Fatal(err)
	}
	if res.Fulfilled != 4 {
		t.Fatalf("fulfilled %d want 4", res.Fulfilled)
	}
}

func TestLocalFixTranscriptOnTheorem37(t *testing.T) {
	// Per interval the transcript must show exactly the proof's traffic:
	// communication round 1 carries 4d messages (R1, R2 to their first
	// alternatives, R3's 2d to S1) of which 2d are dropped at S1's mailbox;
	// round 2 carries the 2d failed R3 requests to S3, half dropped.
	d := 4
	c := adversary.LocalFix(d, 3)
	s := NewFix()
	s.EnableTranscript()
	core.Run(s, c.Trace)
	rounds := s.Transcript()
	if len(rounds) != 6 { // 2 per interval, 3 intervals
		t.Fatalf("transcript has %d comm rounds, want 6", len(rounds))
	}
	for i := 0; i < len(rounds); i += 2 {
		cr1, cr2 := rounds[i], rounds[i+1]
		if cr1.Sent != 4*d || cr1.Dropped != 2*d || cr1.Busiest != 3*d {
			t.Fatalf("interval %d round 1: %+v", i/2, cr1)
		}
		if cr2.Sent != 2*d || cr2.Dropped != d {
			t.Fatalf("interval %d round 2: %+v", i/2, cr2)
		}
	}
}

func TestTranscriptDisabledByDefault(t *testing.T) {
	s := NewFix()
	core.Run(s, adversary.LocalFix(2, 2).Trace)
	if s.Transcript() != nil {
		t.Fatal("transcript recorded without being enabled")
	}
}

func TestLocalEagerTranscriptBounded(t *testing.T) {
	tr := workload.Uniform(workload.Config{N: 5, D: 3, Rounds: 20, Rate: 8, Seed: 4})
	s := NewEager()
	s.EnableTranscript()
	res := core.Run(s, tr)
	rounds := s.Transcript()
	if len(rounds) != res.CommRounds {
		t.Fatalf("transcript %d rounds, accounting says %d", len(rounds), res.CommRounds)
	}
	sent := 0
	for _, cr := range rounds {
		sent += cr.Sent
		if cr.Delivered+cr.Dropped != cr.Sent {
			t.Fatalf("round accounting broken: %+v", cr)
		}
	}
	if sent != res.Messages {
		t.Fatalf("transcript total %d, accounting %d", sent, res.Messages)
	}
}
