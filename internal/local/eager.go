package local

import (
	"reqsched/internal/commnet"
	"reqsched/internal/core"
)

// Eager is A_local_eager (Section 3.2): a three-phase message protocol that
// achieves a competitive ratio of at most 5/3 (Theorem 3.8) using at most
// nine communication rounds per scheduling round:
//
//   - Phase 1 (2 rounds): like A_local_fix, but *all* unscheduled requests
//     (old and new) are sent, first to their first alternative, failures to
//     the second.
//   - Phase 2 (2 rounds): every request scheduled at a future slot pings its
//     other alternative; a resource whose current slot is unused acknowledges
//     one of them, which then cancels its old reservation and is served
//     immediately — no current slot stays idle while some scheduled request
//     could use it.
//   - Phase 3 (5 rounds): every still-unscheduled request q "rivals" at its
//     alternatives in turn: the resource names the request r occupying its
//     current slot and r's other resource S_r; q proposes r to S_r; if S_r
//     accepts, q uses a high-priority tagged message to take r's place in the
//     current slot. The confirm round of the first alternative overlaps the
//     send round of the second, exactly as in the paper.
//
// NewEagerWide gives the per-resource mailbox capacity 2d-2 instead of d.
// The paper notes that this capacity would let the last round of Phase 2
// overlap the first of Phase 3, saving one communication round; Round does
// not implement that overlap, so the variant differs from A_local_eager only
// in its mailbox capacity and uses the same communication rounds.
//
// An Eager value holds per-run scratch and must not be shared by concurrent
// runs.
type Eager struct {
	transcripting
	wide bool
	d    int
}

// NewEager returns the A_local_eager strategy with mailbox capacity d.
func NewEager() *Eager { return &Eager{} }

// NewEagerWide returns the variant with mailbox capacity 2d-2. Only the
// capacity differs from A_local_eager: the protocol, and hence the number of
// communication rounds, is the same.
func NewEagerWide() *Eager { return &Eager{wide: true} }

// Name implements core.Strategy.
func (s *Eager) Name() string {
	if s.wide {
		return "A_local_eager_wide"
	}
	return "A_local_eager"
}

// Begin implements core.Strategy.
func (s *Eager) Begin(n, d int) {
	capacity := d
	if s.wide {
		if capacity = 2*d - 2; capacity < 1 {
			capacity = 1
		}
	}
	s.begin(n, capacity)
	s.d = d
}

// CommTotals implements core.CommAccountant.
func (s *Eager) CommTotals() (rounds, messages int) { return s.nw.Totals() }

// Round implements core.Strategy.
func (s *Eager) Round(ctx *core.RoundContext) {
	sc := &s.sc
	// Phase 1: all unscheduled requests try both alternatives.
	failed := sc.sendToAlternative(s.nw, ctx, ctx.Unassigned(), 0)
	failed = sc.sendToAlternative(s.nw, ctx, failed, 1)

	// Phase 2: pull scheduled requests forward into idle current slots.
	s.pullForward(ctx)

	// Phase 3: rival exchanges, first alternative then second. The confirm
	// round of the first sub-phase shares a communication round with the
	// send round of the second.
	pending0 := s.rivalSend(ctx, failed, 0)
	deals0 := s.rivalPropose(ctx, pending0)
	// Round 3 of the phase: confirms of sub-phase 0 + sends of sub-phase 1.
	// Requests whose exchange was acknowledged know they will be seated and
	// do not re-send.
	known := sc.scheduledSet(ctx, failed)
	for _, dl := range deals0 {
		known[dl.Q.ID] = true
	}
	pending1 := s.confirmAndSend(ctx, deals0, sc.subtract(failed, known))
	deals1 := s.rivalPropose(ctx, pending1)
	s.confirmAndSend(ctx, deals1, nil)
}

// pullForward implements Phase 2. Two communication rounds: the ping (every
// future-scheduled request to its other alternative) and the cancel+move of
// the acknowledged requests.
func (s *Eager) pullForward(ctx *core.RoundContext) {
	sc := &s.sc
	to := sc.outbox(ctx.N)
	sc.snap = ctx.W.AppendAssignments(sc.snap[:0])
	for _, a := range sc.snap {
		if a.Round <= ctx.T || len(a.Req.Alts) != 2 {
			continue
		}
		other := a.Req.Other(a.Res)
		to[other] = append(to[other], commnet.Msg{Req: a.Req})
	}
	received, _ := s.nw.Deliver(to)

	// Deliver copied the pings, so the outbox is free for the cancels.
	cancels := sc.outbox(ctx.N)
	moved := false
	for i := 0; i < ctx.N; i++ {
		if !ctx.W.Free(i, ctx.T) || len(received[i]) == 0 {
			continue
		}
		// Acknowledge one request (the first in admission order) and move
		// it to the current slot.
		r := received[i][0].Req
		prevRes, _, ok := ctx.W.AssignmentOf(r)
		if !ok {
			continue
		}
		cancels[prevRes] = append(cancels[prevRes], commnet.Msg{Req: r})
		moved = true
		// Reserve immediately so a later resource in this loop does not
		// also serve r — each request pinged exactly one resource, so this
		// cannot happen, but the reservation keeps the invariant local.
		ctx.W.Unassign(r)
		ctx.W.Assign(r, i, ctx.T)
	}
	if moved {
		s.nw.Deliver(cancels)
	}
}

// rival is one Phase 3 negotiation: the unscheduled request Q rivals at
// resource Res, which nominated the current-slot occupant R to be moved to
// its other alternative.
type rival struct {
	Q   *core.Request
	Res int
	R   *core.Request
}

// rivalSend implements the first communication round of a Phase 3 sub-phase:
// unscheduled requests contact their alternative `alt`; each resource selects
// one rival and nominates its current-slot occupant. Requests whose resource
// has a free current slot are simply accepted on the spot (the resource
// behaves as in Phase 1; this only arises when mailbox overflow dropped them
// earlier). The result is sc.deals.
func (s *Eager) rivalSend(ctx *core.RoundContext, reqs []*core.Request, alt int) []rival {
	sc := &s.sc
	to := sc.outbox(ctx.N)
	for _, q := range reqs {
		if ctx.W.Assigned(q) || alt >= len(q.Alts) || len(q.Alts) != 2 {
			continue
		}
		dest := q.Alts[alt]
		to[dest] = append(to[dest], commnet.Msg{Req: q})
	}
	received, _ := s.nw.Deliver(to)
	deals := sc.deals[:0]
	for i := 0; i < ctx.N; i++ {
		if len(received[i]) == 0 {
			continue
		}
		if ctx.W.Free(i, ctx.T) {
			// Degenerate case: the slot is idle after Phase 2, so serve the
			// first admitted rival directly.
			q := received[i][0].Req
			ctx.W.Assign(q, i, ctx.T)
			continue
		}
		r := ctx.W.At(i, ctx.T)
		if len(r.Alts) != 2 {
			continue // occupant has nowhere to move
		}
		deals = append(deals, rival{Q: received[i][0].Req, Res: i, R: r})
	}
	sc.deals = deals
	return deals
}

// rivalPropose implements the second communication round of a sub-phase:
// each selected rival q proposes the occupant R to R's other resource, which
// accepts as many proposals as it can schedule. Accepted occupants move
// immediately (the paper: "an acknowledgment received by q implies that
// request r is scheduled by S_r"); the corresponding deals are returned for
// the confirm round. The result is sc.acked.
func (s *Eager) rivalPropose(ctx *core.RoundContext, deals []rival) []rival {
	if len(deals) == 0 {
		return nil
	}
	sc := &s.sc
	to := sc.outbox(ctx.N)
	if sc.byMsg == nil {
		sc.byMsg = make(map[*core.Request]rival, len(deals))
	}
	clear(sc.byMsg)
	for _, dl := range deals {
		sr := dl.R.Other(dl.Res)
		to[sr] = append(to[sr], commnet.Msg{Req: dl.Q, Payload: dl.R})
		sc.byMsg[dl.Q] = dl
	}
	received, _ := s.nw.Deliver(to)
	acked := sc.acked[:0]
	for j := 0; j < ctx.N; j++ {
		for _, m := range received[j] {
			dl := sc.byMsg[m.Req]
			r := m.Payload
			round, ok := earliestFree(ctx.W, j, r)
			if !ok {
				continue // no acknowledgment: q stays unsuccessful
			}
			ctx.W.Unassign(r)
			ctx.W.Assign(r, j, round)
			acked = append(acked, dl)
		}
	}
	sc.acked = acked
	return acked
}

// confirmAndSend implements the shared third communication round: acked
// rivals send the high-priority exchange message to claim the vacated
// current slot, while the still-unsuccessful requests of the next sub-phase
// send their initial rival messages. Returns the next sub-phase's deals, in
// sc.deals.
func (s *Eager) confirmAndSend(ctx *core.RoundContext, acked []rival, nextReqs []*core.Request) []rival {
	sc := &s.sc
	to := sc.outbox(ctx.N)
	for _, dl := range acked {
		to[dl.Res] = append(to[dl.Res], commnet.Msg{Req: dl.Q, Priority: true})
	}
	for _, q := range nextReqs {
		if ctx.W.Assigned(q) || len(q.Alts) != 2 {
			continue
		}
		to[q.Alts[1]] = append(to[q.Alts[1]], commnet.Msg{Req: q})
	}
	received, _ := s.nw.Deliver(to)
	deals := sc.deals[:0]
	for i := 0; i < ctx.N; i++ {
		rivals := sc.rivals[:0]
		for _, m := range received[i] {
			if m.Priority {
				// Exchange: the occupant already moved in rivalPropose, so
				// the current slot is free for q.
				if ctx.W.Free(i, ctx.T) && !ctx.W.Assigned(m.Req) {
					ctx.W.Assign(m.Req, i, ctx.T)
				}
			} else {
				rivals = append(rivals, m)
			}
		}
		sc.rivals = rivals
		if len(rivals) == 0 {
			continue
		}
		if ctx.W.Free(i, ctx.T) {
			q := rivals[0].Req
			if !ctx.W.Assigned(q) {
				ctx.W.Assign(q, i, ctx.T)
			}
			continue
		}
		r := ctx.W.At(i, ctx.T)
		if len(r.Alts) != 2 {
			continue
		}
		deals = append(deals, rival{Q: rivals[0].Req, Res: i, R: r})
	}
	sc.deals = deals
	return deals
}

// scheduledSet returns the subset of reqs that are now scheduled, as the
// reused sc.known set.
func (sc *scratch) scheduledSet(ctx *core.RoundContext, reqs []*core.Request) map[int]bool {
	if sc.known == nil {
		sc.known = make(map[int]bool)
	}
	clear(sc.known)
	for _, r := range reqs {
		if ctx.W.Assigned(r) {
			sc.known[r.ID] = true
		}
	}
	return sc.known
}

// subtract returns reqs minus the IDs in drop, preserving order, in the
// reused sc.rest.
func (sc *scratch) subtract(reqs []*core.Request, drop map[int]bool) []*core.Request {
	out := sc.rest[:0]
	for _, r := range reqs {
		if !drop[r.ID] {
			out = append(out, r)
		}
	}
	sc.rest = out
	return out
}
