// Package policy decomposes an online scheduling strategy into four
// orthogonal, separately registered axes and recomposes them into a
// core.Strategy:
//
//   - Router: which resource (and window slot) serves each request — the
//     paper's strategy bodies (fix, current, fix_balance, eager, balance)
//     plus the greedy/first-fit baselines.
//   - QueueOrder: which pending request a resource prefers first (FCFS,
//     SJF, priority-FCFS).
//   - Admission: accept or reject each request on arrival (always, per-round
//     burst cap, backlog limit).
//   - Priority: a score per request feeding the order axis (constant,
//     weight, SLO age).
//
// The paper fuses the first two decisions into one object; factoring them
// apart multiplies scenario coverage combinatorially. The paper's strategies
// are the canonical compositions (router=X, order=fcfs, admit=always,
// prio=constant): internal/strategies builds A_fix, A_current,
// A_fix_balance, A_eager, A_balance and first_fit exactly that way, so the
// Table 1 goldens and the adversary tests run through Composite.
package policy

import (
	"fmt"
	"slices"
	"sort"

	"reqsched/internal/core"
)

// Router decides which resource and window slot serves each request: given
// the admitted pending queue in service-preference order (most preferred
// first), it writes assignments into ctx.W.
//
// The queue is read-only. Under FCFS it is ctx.Pending itself, in ID order
// (see core.RoundContext.Pending), so a router must not reorder or modify
// it. Routers must derive any arrival/backlog split from the requests
// themselves (r.Arrive == ctx.T identifies this round's arrivals) rather
// than from ctx.Arrivals, which the admission axis may have filtered. Like
// strategy instances, routers may carry per-instance scratch and are not
// safe for concurrent use.
type Router interface {
	Name() string
	Begin(n, d int)
	Route(ctx *core.RoundContext, queue []*core.Request)
}

// QueueOrder ranks pending requests for service preference. Less reports
// whether a should be served before b at round t; pa and pb are the requests'
// scores under the composition's Priority axis. Implementations must be
// deterministic and need not break every tie: Composite sorts stably over a
// queue already in arrival (ID) order, so unordered pairs keep that order.
type QueueOrder interface {
	Name() string
	Less(a, b *core.Request, pa, pb float64, t int) bool
}

// Priority scores a request at round t. Higher scores are preferred by
// orders that consume them (priority_fcfs); aging policies grow the score
// with waiting time.
type Priority interface {
	Name() string
	Score(r *core.Request, t int) float64
}

// Admission accepts or rejects each request once, in the round it arrives.
// Rejected requests are never routed: they stay in the engine's pending set
// until their deadline passes and count as expired — the online analogue of
// answering 429 at ingest. Implementations may keep per-round state; Begin
// resets it.
type Admission interface {
	Name() string
	Begin(n, d int)
	Admit(ctx *core.RoundContext, r *core.Request) bool
}

// Composite assembles one component per axis into a core.Strategy. Each
// round it (1) runs admission over this round's arrivals, (2) builds the
// admitted queue, (3) scores it under the priority axis, (4) stably sorts it
// under the queue order, and (5) hands it to the router. Under FCFS steps 3
// and 4 are skipped, and with nothing rejected step 2 is too. All buffers
// are reused across rounds, so with the always-admit axis the steady-state
// round allocates nothing beyond what the router itself does.
type Composite struct {
	name   string
	router Router
	order  QueueOrder
	prio   Priority
	admit  Admission
	fcfs   bool // order is FCFS: the queue needs no scoring or sort

	queue    []*core.Request
	keys     []float64
	rejected map[int]int // rejected request ID -> deadline, purged on expiry
	srt      queueSorter
}

// NewComposite returns the composition under the given display name (the
// registry uses the round-trippable spec, e.g. "compose,router=greedy").
func NewComposite(name string, r Router, o QueueOrder, p Priority, a Admission) *Composite {
	_, fcfs := o.(FCFS)
	return &Composite{name: name, router: r, order: o, prio: p, admit: a, fcfs: fcfs}
}

// Name implements core.Strategy.
func (c *Composite) Name() string { return c.name }

// SupportsModel implements core.ModelSupporter by delegating to the router —
// the only axis that touches window slots. Order, priority and admission read
// at most Window.Assigned, which is model-agnostic.
func (c *Composite) SupportsModel(m core.ServiceModel) error {
	if ms, ok := c.router.(core.ModelSupporter); ok {
		return ms.SupportsModel(m)
	}
	return fmt.Errorf("policy: router %q supports only the unit service model, not %s", c.router.Name(), m)
}

// Begin implements core.Strategy.
func (c *Composite) Begin(n, d int) {
	c.router.Begin(n, d)
	c.admit.Begin(n, d)
	clear(c.rejected)
}

// Round implements core.Strategy. Under FCFS the queue is ctx.Pending itself
// (or its admitted subsequence): the engine keeps Pending in ID order, which
// is arrival order, so the stable sort would be the identity and scoring
// would feed nothing. Only a reordering axis copies the queue and sorts it.
func (c *Composite) Round(ctx *core.RoundContext) {
	for _, r := range ctx.Arrivals {
		if !c.admit.Admit(ctx, r) {
			if c.rejected == nil {
				c.rejected = make(map[int]int)
			}
			c.rejected[r.ID] = r.Deadline()
		}
	}
	q, owned := ctx.Pending, false
	if len(c.rejected) > 0 {
		for id, dl := range c.rejected {
			if dl < ctx.T {
				delete(c.rejected, id)
			}
		}
		q, owned = c.queue[:0], true
		for _, r := range ctx.Pending {
			if _, rej := c.rejected[r.ID]; !rej {
				q = append(q, r)
			}
		}
		c.queue = q
	}
	if !c.fcfs {
		if !owned {
			c.queue = append(c.queue[:0], q...)
			q = c.queue
		}
		c.keys = slices.Grow(c.keys[:0], len(q))[:len(q)]
		for i, r := range q {
			c.keys[i] = c.prio.Score(r, ctx.T)
		}
		c.srt = queueSorter{q: q, keys: c.keys, ord: c.order, t: ctx.T}
		sort.Stable(&c.srt)
	}
	c.router.Route(ctx, q)
}

// queueSorter sorts the queue and its priority keys together under the
// composition's order. It lives inside Composite so taking its address for
// sort.Stable does not allocate.
type queueSorter struct {
	q    []*core.Request
	keys []float64
	ord  QueueOrder
	t    int
}

func (s *queueSorter) Len() int { return len(s.q) }
func (s *queueSorter) Less(i, j int) bool {
	return s.ord.Less(s.q[i], s.q[j], s.keys[i], s.keys[j], s.t)
}
func (s *queueSorter) Swap(i, j int) {
	s.q[i], s.q[j] = s.q[j], s.q[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
