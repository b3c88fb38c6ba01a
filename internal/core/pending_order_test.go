package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// orderProbe checks, every round, the order RoundContext.Pending promises:
// increasing ID, non-decreasing Arrive, and this round's Arrivals as its
// suffix. policy.Composite hands Pending to FCFS routers unsorted on the
// strength of this guarantee. The probe schedules like a retrying first fit
// that never assigns every third request, so a run mixes served, held,
// waiting and expiring requests.
type orderProbe struct {
	t      *testing.T
	label  string
	rounds int
	failed bool
}

func (*orderProbe) Name() string                     { return "order_probe" }
func (*orderProbe) Begin(n, d int)                   {}
func (*orderProbe) SupportsModel(ServiceModel) error { return nil }

func (p *orderProbe) Round(ctx *RoundContext) {
	p.rounds++
	pend := ctx.Pending
	for i := 1; i < len(pend) && !p.failed; i++ {
		a, b := pend[i-1], pend[i]
		if a.ID >= b.ID || a.Arrive > b.Arrive {
			p.failed = true
			p.t.Errorf("%s round %d: Pending[%d] = id %d arrive %d precedes id %d arrive %d",
				p.label, ctx.T, i-1, a.ID, a.Arrive, b.ID, b.Arrive)
		}
	}
	if k := len(ctx.Arrivals); !p.failed && k > 0 {
		tail := pend[max(len(pend)-k, 0):]
		for i, r := range ctx.Arrivals {
			if i >= len(tail) || tail[i] != r {
				p.failed = true
				p.t.Errorf("%s round %d: Arrivals are not the suffix of Pending", p.label, ctx.T)
				break
			}
		}
	}
	for _, r := range pend {
		if r.ID%3 == 0 || ctx.W.Assigned(r) {
			continue
		}
		if res, round, ok := ctx.W.FirstFreeSlot(r); ok {
			ctx.W.Assign(r, res, round)
		}
	}
}

// orderTrace builds an overloaded trace with per-request windows of 1..4
// rounds, so requests expire out of ID order, under model m.
func orderTrace(seed int64, n int, m ServiceModel, mixed bool) *Trace {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, 3)
	b.SetModel(m)
	for t := 0; t < 60; t++ {
		for k := rng.Intn(3 * n); k > 0; k-- {
			d := 3
			if mixed {
				d = 1 + rng.Intn(4)
			}
			a := rng.Intn(n)
			b.AddWindow(t, d, a, (a+1+rng.Intn(n-1))%n)
		}
	}
	return b.Build()
}

// TestPendingIsInIDAndArrivalOrder pins the RoundContext.Pending order on
// every entry point to the Stepper: Run under hold 1-3 x cap 1-2, and
// RunAdaptive, which runs the unit model only.
func TestPendingIsInIDAndArrivalOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for hold := 1; hold <= 3; hold++ {
			for capc := 1; capc <= 2; capc++ {
				m := ServiceModel{Hold: hold, Cap: capc}
				tr := orderTrace(seed, 4, m, true)
				p := &orderProbe{t: t, label: fmt.Sprintf("Run seed=%d %s", seed, m)}
				res := Run(p, tr)
				if err := ValidateLog(tr, res.Log); err != nil {
					t.Fatalf("%s: %v", p.label, err)
				}
				if p.rounds == 0 || res.Expired == 0 || res.Fulfilled == 0 {
					t.Fatalf("%s: %d rounds, %d served, %d expired: the run does not exercise expiry",
						p.label, p.rounds, res.Fulfilled, res.Expired)
				}
			}
		}
		// An adaptive source injects with the default window only.
		tr := orderTrace(seed, 4, UnitModel(), false)
		p := &orderProbe{t: t, label: fmt.Sprintf("RunAdaptive seed=%d", seed)}
		res, _ := RunAdaptive(p, &ReplaySource{Tr: tr})
		if p.rounds == 0 || res.Expired == 0 || res.Fulfilled == 0 {
			t.Fatalf("%s: %d rounds, %d served, %d expired: the run does not exercise expiry",
				p.label, p.rounds, res.Fulfilled, res.Expired)
		}
	}
}
