// Package local implements the paper's distributed scheduling strategies
// (Section 3.2): A_local_fix (two communication rounds per scheduling round,
// exactly 2-competitive, Theorem 3.7) and A_local_eager (three phases, at
// most nine communication rounds, 5/3-competitive, Theorem 3.8). Both are
// built on the message-passing substrate of internal/commnet: requests know
// nothing about each other and learn about the resources' state only through
// capped message exchanges.
package local

import (
	"cmp"
	"slices"

	"reqsched/internal/commnet"
	"reqsched/internal/core"
)

// accept performs a resource's local admission: it matches a maximal number
// of the received requests to its free slots, assigning earliest-deadline
// requests to earliest slots (the locally optimal rule), and returns the
// rejected remainder. The resource only ever inspects its own slots.
func accept(w *core.Window, res int, msgs []commnet.Msg) (rejected []commnet.Msg) {
	if len(msgs) == 0 {
		return nil
	}
	byDeadline := append([]commnet.Msg(nil), msgs...)
	slices.SortStableFunc(byDeadline, func(a, b commnet.Msg) int {
		if c := cmp.Compare(a.Req.Deadline(), b.Req.Deadline()); c != 0 {
			return c
		}
		return cmp.Compare(a.Req.ID, b.Req.ID)
	})
	for _, m := range byDeadline {
		if round, ok := earliestFree(w, res, m.Req); ok {
			w.Assign(m.Req, res, round)
		} else {
			rejected = append(rejected, m)
		}
	}
	return rejected
}

// earliestFree returns the earliest free slot of resource res usable by r.
func earliestFree(w *core.Window, res int, r *core.Request) (int, bool) {
	last := r.Deadline()
	if max := w.Round() + w.Depth() - 1; last > max {
		last = max
	}
	for round := w.Round(); round <= last; round++ {
		if w.Free(res, round) {
			return round, true
		}
	}
	return 0, false
}

// transcripting is embedded by the local strategies to optionally record
// per-communication-round summaries and inject message loss.
type transcripting struct {
	record   bool
	lossRate float64
	lossSeed int64
	nw       *commnet.Network
}

// InjectLoss makes every message of the next run vanish in transit with the
// given probability (failure injection; deterministic per seed). Lost
// messages are silent: the affected request simply never hears back this
// scheduling round, which degrades throughput but can never produce an
// invalid schedule.
func (tp *transcripting) InjectLoss(rate float64, seed int64) {
	tp.lossRate = rate
	tp.lossSeed = seed
}

// MessagesLost returns the number of messages lost in transit in the last
// run.
func (tp *transcripting) MessagesLost() int {
	if tp.nw == nil {
		return 0
	}
	return tp.nw.Lost()
}

// EnableTranscript makes the next run record per-communication-round
// summaries, retrievable with Transcript after the run.
func (tp *transcripting) EnableTranscript() { tp.record = true }

// Transcript returns the recorded communication-round summaries of the last
// run (nil unless EnableTranscript was called before it).
func (tp *transcripting) Transcript() []commnet.CommRound {
	if tp.nw == nil {
		return nil
	}
	return tp.nw.TranscriptRounds()
}

func (tp *transcripting) begin(n, cap int) *commnet.Network {
	tp.nw = commnet.New(n, cap)
	if tp.record {
		tp.nw.StartTranscript()
	}
	if tp.lossRate > 0 {
		tp.nw.InjectLoss(tp.lossRate, tp.lossSeed)
	}
	return tp.nw
}

// Fix is A_local_fix: each new request is sent to its first alternative
// resource, which admits at most d messages (LDF) and accepts a maximal
// subset into its free slots; rejected and dropped requests try their second
// alternative in a second communication round. Requests that fail both stay
// unscheduled forever (no rescheduling, like A_fix). Exactly 2-competitive
// (Theorem 3.7), two communication rounds per scheduling round.
type Fix struct {
	transcripting
}

// NewFix returns the A_local_fix strategy.
func NewFix() *Fix { return &Fix{} }

// Name implements core.Strategy.
func (*Fix) Name() string { return "A_local_fix" }

// Begin implements core.Strategy.
func (s *Fix) Begin(n, d int) { s.begin(n, d) }

// CommTotals implements core.CommAccountant.
func (s *Fix) CommTotals() (rounds, messages int) { return s.nw.Totals() }

// Round implements core.Strategy.
func (s *Fix) Round(ctx *core.RoundContext) {
	failed := sendToAlternative(s.nw, ctx, ctx.Arrivals, 0)
	sendToAlternative(s.nw, ctx, failed, 1)
}

// sendToAlternative runs one communication round: each request is sent to
// its alternative with the given index (requests without one fail
// immediately); resources admit and accept; the failures are returned in ID
// order.
func sendToAlternative(nw *commnet.Network, ctx *core.RoundContext, reqs []*core.Request, alt int) []*core.Request {
	to := make([][]commnet.Msg, ctx.N)
	var failed []*core.Request
	for _, r := range reqs {
		if alt >= len(r.Alts) {
			failed = append(failed, r)
			continue
		}
		dest := r.Alts[alt]
		to[dest] = append(to[dest], commnet.Msg{Req: r})
	}
	received, dropped := nw.Deliver(to)
	for i := 0; i < ctx.N; i++ {
		for _, m := range accept(ctx.W, i, received[i]) {
			failed = append(failed, m.Req)
		}
		for _, m := range dropped[i] {
			failed = append(failed, m.Req)
		}
	}
	slices.SortFunc(failed, func(a, b *core.Request) int { return cmp.Compare(a.ID, b.ID) })
	return failed
}
