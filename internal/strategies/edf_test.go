package strategies

import (
	"math/rand/v2"
	"testing"

	"reqsched/internal/core"
)

// TestEDFServedSetBounded streams 10⁶ requests through both EDF variants
// under a long-running engine (no fulfillment log) and checks the served set
// never outgrows the live requests: it holds entries only for served requests
// still inside their window, up to the amortised sweep's factor of two.
func TestEDFServedSetBounded(t *testing.T) {
	const (
		n, d     = 8, 4
		perRound = 10 // above capacity n, so requests are both served and lost
		total    = 1_000_000
	)
	// At most perRound·d requests are live in any round; the sweep runs once
	// the map reaches max(2·live at the last sweep, edfPruneMin), and a round
	// serves at most n more before the next check.
	const bound = 2*perRound*d + edfPruneMin + n
	for _, e := range []*EDF{NewEDF(), NewEDFCoordinated()} {
		st := core.NewStepper(e, n, d, d)
		st.KeepLog = false
		rng := rand.New(rand.NewPCG(7, 7))
		arrivals := make([]*core.Request, perRound)
		peak := 0
		for id := 0; id < total; {
			for i := range arrivals {
				a := rng.IntN(n)
				b := (a + 1 + rng.IntN(n-1)) % n
				arrivals[i] = &core.Request{ID: id, Arrive: st.Round(), Alts: []int{a, b}, D: d}
				id++
			}
			st.Step(arrivals)
			peak = max(peak, len(e.served))
			if len(e.served) > bound {
				t.Fatalf("%s: served set holds %d entries after %d requests, want <= %d",
					e.Name(), len(e.served), id, bound)
			}
		}
		res := st.Result()
		if res.Fulfilled == 0 || res.Expired == 0 {
			t.Fatalf("%s: fulfilled %d expired %d; want both positive", e.Name(), res.Fulfilled, res.Expired)
		}
		t.Logf("%s: %d served, peak served set %d", e.Name(), res.Fulfilled, peak)
	}
}
