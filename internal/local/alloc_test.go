package local

import (
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/workload"
)

// lossyStrategy is the surface the local strategies share beyond
// core.Strategy.
type lossyStrategy interface {
	core.Strategy
	InjectLoss(rate float64, seed int64)
	MessagesLost() int
	CommTotals() (rounds, messages int)
}

// TestLocalRoundsAllocateNothing pins the round-loop scratch reuse of the
// local strategies and of commnet.Deliver: a run four times as long may
// allocate only a small constant more (the engine's and the buffers'
// amortised growth), never per round. It also pins the exact schedule size
// and communication accounting, with and without message loss, so the
// scratch reuse cannot change what the protocols do.
func TestLocalRoundsAllocateNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow with -short")
	}
	// Amortised slice growth over a 4x longer run adds a few allocations; a
	// per-round allocation adds at least 900.
	const maxGrowth = 10
	trace := func(rounds int) *core.Trace {
		return workload.Uniform(workload.Config{N: 16, D: 6, Rounds: rounds, Rate: 18, Seed: 11})
	}
	short, long := trace(300), trace(1200)
	type pin struct{ fulfilled, rounds, messages, lost int }
	for _, c := range []struct {
		mk           func() lossyStrategy
		clean, lossy pin
	}{
		{func() lossyStrategy { return NewFix() },
			pin{4828, 583, 6572, 0}, pin{4288, 420, 5564, 1075}},
		{func() lossyStrategy { return NewEager() },
			pin{4864, 2081, 41115, 0}, pin{4855, 2087, 35539, 7050}},
		{func() lossyStrategy { return NewEagerWide() },
			pin{4864, 2081, 41115, 0}, pin{4855, 2087, 35539, 7050}},
	} {
		name := c.mk().Name()
		allocs := func(tr *core.Trace) float64 {
			return testing.AllocsPerRun(3, func() { core.Run(c.mk(), tr) })
		}
		a300, a1200 := allocs(short), allocs(long)
		t.Logf("%s: %v allocs per run at 300 rounds, %v at 1200", name, a300, a1200)
		if a1200-a300 > maxGrowth {
			t.Errorf("%s: %v allocs at 1200 rounds vs %v at 300: the round loop allocates", name, a1200, a300)
		}

		for _, loss := range []bool{false, true} {
			s, want := c.mk(), c.clean
			if loss {
				s.InjectLoss(0.2, 7)
				want = c.lossy
			}
			res := core.Run(s, short)
			rounds, messages := s.CommTotals()
			got := pin{res.Fulfilled, rounds, messages, s.MessagesLost()}
			if got != want {
				t.Errorf("%s loss=%v: got %+v, want %+v", name, loss, got, want)
			}
		}
	}
}
