package registry

import (
	"fmt"

	"reqsched/internal/core"
	"reqsched/internal/policy"
	"reqsched/internal/strategies"
)

// This file registers the four policy axes of internal/policy — router,
// order, admission, priority — and the "compose" strategy that assembles one
// component per axis into a runnable core.Strategy. The axis parameters
// (burst cap, backlog limit, SLO base/age weight) are shared Param values so
// the compose schema and the per-axis schemas cannot drift apart.

var (
	burstKParam = Param{
		Name: "k", Doc: "burst admission: arrivals accepted per round", Type: Int,
		Default: IntVal(16), Min: Bound(1),
	}
	backlogLimitParam = Param{
		Name: "limit", Doc: "backlog admission: carried unassigned backlog that closes intake", Type: Int,
		Default: IntVal(64), Min: Bound(0),
	}
	tbRateParam = Param{
		Name: "rate", Doc: "token_bucket admission: tokens refilled per round", Type: Float,
		Default: FloatVal(8), Min: Bound(0),
	}
	tbBurstParam = Param{
		Name: "burst", Doc: "token_bucket admission: bucket size (largest burst admitted untrimmed)", Type: Int,
		Default: IntVal(16), Min: Bound(1),
	}
	sloBaseParam = Param{
		Name: "base", Doc: "slo_age priority: base score", Type: Float,
		Default: FloatVal(0),
	}
	sloAgeWeightParam = Param{
		Name: "age_weight", Doc: "slo_age priority: score gained per round waited", Type: Float,
		Default: FloatVal(1),
	}
)

// router, order, priority register parameterless axis components under their
// Name().
func router(doc string, mk func() policy.Router) {
	Register(Component{
		Kind: KindRouter, Name: mk().Name(), Doc: doc,
		Router: func(Params) policy.Router { return mk() },
	})
}

func order(doc string, mk func() policy.QueueOrder) {
	Register(Component{
		Kind: KindOrder, Name: mk().Name(), Doc: doc,
		Order: func(Params) policy.QueueOrder { return mk() },
	})
}

func priorityComp(doc string, params []Param, mk func(Params) policy.Priority) {
	Register(Component{
		Kind: KindPriority, Name: mk(Component{Params: params}.Defaults()).Name(), Doc: doc,
		Params: params, Priority: mk,
	})
}

func admission(doc string, params []Param, mk func(Params) policy.Admission) {
	Register(Component{
		Kind: KindAdmission, Name: mk(Component{Params: params}.Defaults()).Name(), Doc: doc,
		Params: params, Admission: mk,
	})
}

func init() {
	// Routers: the paper strategies' resource-assignment bodies plus the two
	// matching-free baselines. compose(router=X, order=fcfs, admit=always,
	// prio=constant) builds the same composite as the paper strategy of the
	// same body (strategies.NewFix, ...), under its spec as the name.
	router("A_fix body: keep prior assignments, match arrivals maximally into free slots",
		func() policy.Router { return strategies.NewFixRouter() })
	router("A_current body: maximum matching on the current round's slots only",
		func() policy.Router { return strategies.NewCurrentRouter() })
	router("A_fix_balance body: no rescheduling, F-maximal extension over free slots",
		func() policy.Router { return strategies.NewFixBalanceRouter() })
	router("A_eager body: recompute maximizing current-round service, keep scheduled requests scheduled",
		func() policy.Router { return strategies.NewEagerRouter() })
	router("A_balance body: recompute the F-maximal maximum matching, keep scheduled requests scheduled",
		func() policy.Router { return strategies.NewBalanceRouter() })
	router("retrying first-fit: every unassigned queued request tries its first free slot each round",
		func() policy.Router { return policy.GreedyRouter{} })
	router("first-fit baseline body: arrivals only, misses never retried",
		func() policy.Router { return policy.FirstFitRouter{} })

	// Queue orders.
	order("first come, first served: arrival (ID) order — the paper strategies' order",
		func() policy.QueueOrder { return policy.FCFS{} })
	order("shortest job first: tightest deadline window first (relieves head-of-line blocking)",
		func() policy.QueueOrder { return policy.SJF{} })
	order("descending priority score, FCFS within a class (combine with the priority axis)",
		func() policy.QueueOrder { return policy.PriorityFCFS{} })

	// Priorities.
	priorityComp("no priority signal: every request scores 0",
		nil, func(Params) policy.Priority { return policy.ConstantPriority{} })
	priorityComp("score = request weight: heavy (high-profit) requests first",
		nil, func(Params) policy.Priority { return policy.WeightPriority{} })
	priorityComp("aged SLO score = base + age_weight x rounds waited (anti-starvation)",
		[]Param{sloBaseParam, sloAgeWeightParam}, func(p Params) policy.Priority {
			return policy.SLOAgePriority{Base: p.Float("base"), AgeWeight: p.Float("age_weight")}
		})

	// Admissions.
	admission("accept every arrival (the paper's model)",
		nil, func(Params) policy.Admission { return policy.AdmitAll{} })
	admission("accept at most k arrivals per round, reject the rest",
		[]Param{burstKParam}, func(p Params) policy.Admission {
			return &policy.BurstAdmission{K: p.Int("k")}
		})
	admission("reject arrivals while the carried unassigned backlog is at or above limit",
		[]Param{backlogLimitParam}, func(p Params) policy.Admission {
			return &policy.BacklogAdmission{Limit: p.Int("limit")}
		})
	admission("token bucket: rate tokens accrue per round up to burst, one spent per admitted request",
		[]Param{tbRateParam, tbBurstParam}, func(p Params) policy.Admission {
			return &policy.TokenBucketAdmission{Rate: p.Float("rate"), Burst: p.Int("burst")}
		})

	registerCompose()
}

// axisParams projects the compose parameter set onto one axis component's
// schema (the names are shared, so the subset is exactly what the axis
// constructor expects).
func axisParams(c Component, p Params) Params {
	out := Params{}
	for _, sp := range c.Params {
		if v, ok := p[sp.Name]; ok {
			out[sp.Name] = v
		}
	}
	return out
}

func registerCompose() {
	axis := func(kind Kind, name string) (Component, error) {
		c, ok := Get(kind, name)
		if !ok {
			return Component{}, fmt.Errorf("unknown %s %q (%s)", kind, name, listNames(kind))
		}
		return c, nil
	}
	comp := Component{
		Kind: KindStrategy, Name: "compose",
		Doc: "composed strategy: any router x order x admission x priority (see the axis kinds in -list)",
		Params: append([]Param{
			{Name: "router", Doc: "router axis: which resource serves", Type: Str, Default: StrVal("balance")},
			{Name: "order", Doc: "order axis: which pending request first", Type: Str, Default: StrVal("fcfs")},
			{Name: "admit", Doc: "admission axis: accept/reject on arrival", Type: Str, Default: StrVal("always")},
			{Name: "prio", Doc: "priority axis: score feeding the order", Type: Str, Default: StrVal("constant")},
			burstKParam, backlogLimitParam, tbRateParam, tbBurstParam, sloBaseParam, sloAgeWeightParam,
		}, ModelParams()...),
	}
	build := func(p Params) (core.Strategy, error) {
		rc, err := axis(KindRouter, p.Str("router"))
		if err != nil {
			return nil, err
		}
		oc, err := axis(KindOrder, p.Str("order"))
		if err != nil {
			return nil, err
		}
		ac, err := axis(KindAdmission, p.Str("admit"))
		if err != nil {
			return nil, err
		}
		pc, err := axis(KindPriority, p.Str("prio"))
		if err != nil {
			return nil, err
		}
		r, err := NewRouter(rc.Name, axisParams(rc, p))
		if err != nil {
			return nil, err
		}
		o, err := NewOrder(oc.Name, axisParams(oc, p))
		if err != nil {
			return nil, err
		}
		a, err := NewAdmission(ac.Name, axisParams(ac, p))
		if err != nil {
			return nil, err
		}
		pr, err := NewPriority(pc.Name, axisParams(pc, p))
		if err != nil {
			return nil, err
		}
		// The instance name is the round-trippable spec: "compose" plus the
		// non-default parameters in canonical order.
		name := "compose"
		if fp := comp.FormatParams(p); fp != "" {
			name += "," + fp
		}
		return policy.NewComposite(name, r, o, pr, a), nil
	}
	comp.Check = func(p Params) error {
		s, err := build(p)
		if err != nil {
			return err
		}
		// The composite delegates model support to its router, so a
		// "compose,router=balance,hold=2" spec fails here, at parse time.
		return core.CheckModelSupport(s, ModelOf(p))
	}
	comp.Strategy = func(p Params) core.Strategy {
		// Check has validated the axes; construction cannot fail.
		s, err := build(p)
		if err != nil {
			panic(err)
		}
		return s
	}
	Register(comp)
}

// listNames renders the catalog names of one kind for error messages.
func listNames(kind Kind) string {
	names := Names(kind)
	if len(names) == 0 {
		return "none registered"
	}
	out := names[0]
	for _, n := range names[1:] {
		out += ", " + n
	}
	return out
}
