package policy_test

import (
	"testing"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/policy"
)

// TestOrderComponents checks the Less relations directly.
func TestOrderComponents(t *testing.T) {
	early := &core.Request{ID: 0, Arrive: 0, D: 5}
	late := &core.Request{ID: 3, Arrive: 2, D: 1}
	// FCFS: earlier arrival first, regardless of window.
	if !(policy.FCFS{}).Less(early, late, 0, 0, 2) {
		t.Error("FCFS does not prefer the earlier arrival")
	}
	if (policy.FCFS{}).Less(late, early, 0, 0, 2) {
		t.Error("FCFS prefers the later arrival")
	}
	if !(policy.SJF{}).Less(late, early, 0, 0, 2) {
		t.Error("SJF does not prefer the tighter window")
	}
	if (policy.SJF{}).Less(early, late, 0, 0, 2) {
		t.Error("SJF prefers the wider window")
	}
	// priority_fcfs: score beats arrival; equal scores fall back to arrival.
	if !(policy.PriorityFCFS{}).Less(late, early, 2, 1, 2) {
		t.Error("priority_fcfs does not prefer the higher score")
	}
	if !(policy.PriorityFCFS{}).Less(early, late, 1, 1, 2) {
		t.Error("priority_fcfs with equal scores does not fall back to FCFS")
	}
}

// TestPriorityComponents checks the scoring rules.
func TestPriorityComponents(t *testing.T) {
	r := &core.Request{ID: 1, Arrive: 3, D: 4, W: 7}
	if got := (policy.ConstantPriority{}).Score(r, 10); got != 0 {
		t.Errorf("constant score %v, want 0", got)
	}
	if got := (policy.WeightPriority{}).Score(r, 10); got != 7 {
		t.Errorf("weight score %v, want 7", got)
	}
	unweighted := &core.Request{ID: 2, Arrive: 0, D: 1}
	if got := (policy.WeightPriority{}).Score(unweighted, 0); got != 1 {
		t.Errorf("weight score of unweighted request %v, want the default weight 1", got)
	}
	p := policy.SLOAgePriority{Base: 2, AgeWeight: 0.5}
	if got := p.Score(r, 7); got != 2+0.5*4 {
		t.Errorf("slo_age score %v, want 4", got)
	}
}

// TestBurstAdmissionCapsArrivals: with k=1 on an overloaded workload the
// composition admits one arrival per round; the rest are rejected and
// expire. Totals are conserved (requests = fulfilled + expired), and the
// always-admit composition serves strictly more.
func TestBurstAdmissionCapsArrivals(t *testing.T) {
	tr := reqsched.Uniform(reqsched.WorkloadConfig{N: 4, D: 3, Rounds: 60, Rate: 6, Seed: 9})
	capped := reqsched.Run(reqsched.StrategyByName("compose,router=greedy,admit=burst,k=1"), tr)
	open := reqsched.Run(reqsched.StrategyByName("compose,router=greedy"), tr)
	if capped.Requests != open.Requests {
		t.Fatalf("admission changed the request count: %d vs %d", capped.Requests, open.Requests)
	}
	if capped.Fulfilled+capped.Expired != capped.Requests {
		t.Errorf("totals not conserved: %d + %d != %d", capped.Fulfilled, capped.Expired, capped.Requests)
	}
	// At most one admission per round can be fulfilled.
	if rounds := len(tr.Arrivals); capped.Fulfilled > rounds {
		t.Errorf("burst k=1 fulfilled %d > %d rounds", capped.Fulfilled, rounds)
	}
	if capped.Fulfilled >= open.Fulfilled {
		t.Errorf("burst k=1 (%d) should serve fewer than always-admit (%d) under overload",
			capped.Fulfilled, open.Fulfilled)
	}
	if capped.Fulfilled == 0 {
		t.Error("burst k=1 served nothing")
	}
}

// TestBacklogAdmissionShedsLoad: limit=0 closes intake whenever any backlog
// is carried; on an overloaded workload that still admits work whenever the
// queue fully drains, and a generous limit admits everything.
func TestBacklogAdmissionShedsLoad(t *testing.T) {
	tr := reqsched.Uniform(reqsched.WorkloadConfig{N: 2, D: 2, Rounds: 40, Rate: 4, Seed: 5})
	strict := reqsched.Run(reqsched.StrategyByName("compose,router=greedy,admit=backlog,limit=0"), tr)
	open := reqsched.Run(reqsched.StrategyByName("compose,router=greedy"), tr)
	loose := reqsched.Run(reqsched.StrategyByName("compose,router=greedy,admit=backlog,limit=10000"), tr)
	if strict.Fulfilled >= open.Fulfilled {
		t.Errorf("backlog limit=0 (%d) should shed load vs always-admit (%d)", strict.Fulfilled, open.Fulfilled)
	}
	if loose.Fulfilled != open.Fulfilled || loose.Expired != open.Expired {
		t.Errorf("backlog limit=10000 (%d/%d) should match always-admit (%d/%d)",
			loose.Fulfilled, loose.Expired, open.Fulfilled, open.Expired)
	}
	if strict.Fulfilled+strict.Expired != strict.Requests {
		t.Errorf("totals not conserved: %d + %d != %d", strict.Fulfilled, strict.Expired, strict.Requests)
	}
}

// TestDefaultComposeIsBalance: the all-defaults composition is A_balance —
// the paper's best simple strategy is the default composition.
func TestDefaultComposeIsBalance(t *testing.T) {
	tr := reqsched.Uniform(reqsched.WorkloadConfig{N: 8, D: 4, Rounds: 80, Rate: 9, Seed: 3})
	legacy := reqsched.Run(reqsched.StrategyByName("A_balance"), tr)
	composed := reqsched.Run(reqsched.StrategyByName("compose"), tr)
	if len(legacy.Log) != len(composed.Log) || legacy.Expired != composed.Expired {
		t.Fatalf("A_balance served %d (%d expired), compose %d (%d expired)",
			len(legacy.Log), legacy.Expired, len(composed.Log), composed.Expired)
	}
	for i, f := range legacy.Log {
		if g := composed.Log[i]; f.Req.ID != g.Req.ID || f.Res != g.Res || f.Round != g.Round {
			t.Fatalf("schedules diverge at entry %d: %+v vs %+v", i, f, g)
		}
	}
}

// spyRouter checks each round's queue against the round context before
// routing it greedily.
type spyRouter struct {
	check func(ctx *core.RoundContext, q []*core.Request)
}

func (spyRouter) Name() string   { return "spy" }
func (spyRouter) Begin(int, int) {}
func (s spyRouter) Route(ctx *core.RoundContext, q []*core.Request) {
	s.check(ctx, q)
	policy.GreedyRouter{}.Route(ctx, q)
}

// TestCompositeQueue pins what the router receives: under FCFS with nothing
// rejected, ctx.Pending itself; under FCFS with rejections, the admitted
// subsequence in ID order; under a reordering axis, a sorted copy that
// leaves ctx.Pending in ID order.
func TestCompositeQueue(t *testing.T) {
	tr := reqsched.MixedDeadlines(reqsched.WorkloadConfig{N: 4, D: 6, Rounds: 40, Rate: 8, Seed: 7})
	idOrder := func(q []*core.Request) bool {
		for i := 1; i < len(q); i++ {
			if q[i-1].ID >= q[i].ID {
				return false
			}
		}
		return true
	}
	for _, c := range []struct {
		name  string
		order policy.QueueOrder
		admit policy.Admission
		check func(ctx *core.RoundContext, q []*core.Request) string
	}{
		{"fcfs", policy.FCFS{}, policy.AdmitAll{}, func(ctx *core.RoundContext, q []*core.Request) string {
			if len(q) != len(ctx.Pending) || len(q) > 0 && &q[0] != &ctx.Pending[0] {
				return "queue is not ctx.Pending"
			}
			return ""
		}},
		{"fcfs+burst", policy.FCFS{}, &policy.BurstAdmission{K: 1}, func(ctx *core.RoundContext, q []*core.Request) string {
			if len(q) > len(ctx.Pending) || !idOrder(q) {
				return "queue is not an ID-ordered subsequence of ctx.Pending"
			}
			return ""
		}},
		{"sjf", policy.SJF{}, policy.AdmitAll{}, func(ctx *core.RoundContext, q []*core.Request) string {
			if len(q) != len(ctx.Pending) || !idOrder(ctx.Pending) {
				return "sorting reordered ctx.Pending"
			}
			for i := 1; i < len(q); i++ {
				if (policy.SJF{}).Less(q[i], q[i-1], 0, 0, ctx.T) {
					return "queue is not in SJF order"
				}
			}
			return ""
		}},
	} {
		rounds := 0
		s := policy.NewComposite(c.name, spyRouter{func(ctx *core.RoundContext, q []*core.Request) {
			rounds++
			if msg := c.check(ctx, q); msg != "" {
				t.Fatalf("%s round %d: %s", c.name, ctx.T, msg)
			}
		}}, c.order, policy.ConstantPriority{}, c.admit)
		if res := reqsched.Run(s, tr); res.Fulfilled == 0 || rounds == 0 {
			t.Fatalf("%s: served %d over %d rounds", c.name, res.Fulfilled, rounds)
		}
	}
}
