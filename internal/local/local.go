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
// rejected remainder. The resource only ever inspects its own slots. The
// returned slice is scratch, valid until the next accept.
func (sc *scratch) accept(w *core.Window, res int, msgs []commnet.Msg) (rejected []commnet.Msg) {
	rejected = sc.rejected[:0]
	if len(msgs) == 0 {
		return rejected
	}
	byDeadline := append(sc.sorted[:0], msgs...)
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
	sc.sorted, sc.rejected = byDeadline, rejected
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

// scratch is the per-strategy buffer set the local strategies carry across
// rounds, the counterpart of the global strategies' roundScratch: the
// per-resource outbox, accept's sort and rejected buffers, the failures of
// each Phase 1 alternative, the window snapshot, the Phase 3 deal lists and
// request sets. Everything grows on first use and is reused afterwards, so a
// steady-state round allocates nothing. The scratch and the run's Network
// make a strategy value per-run state: one value must not be shared by
// concurrent runs (the measurement harness builds one per job). Requests are
// only read, so concurrent runs on one shared trace stay safe.
type scratch struct {
	to       [][]commnet.Msg
	sorted   []commnet.Msg
	rejected []commnet.Msg
	// failed[alt] holds the failures of the Phase 1 round that sent to
	// alternative alt; the alt-1 round reads failed[0] while filling
	// failed[1].
	failed [2][]*core.Request
	snap   []core.Assignment
	// deals holds the rival negotiations opened by rivalSend and
	// confirmAndSend, acked those rivalPropose acknowledged; each call reads
	// the other list.
	deals, acked []rival
	rivals       []commnet.Msg
	rest         []*core.Request
	byMsg        map[*core.Request]rival
	known        map[int]bool
}

// outbox returns the per-resource outbox for n resources, emptied.
func (sc *scratch) outbox(n int) [][]commnet.Msg {
	if len(sc.to) != n {
		sc.to = make([][]commnet.Msg, n)
	}
	for i := range sc.to {
		sc.to[i] = sc.to[i][:0]
	}
	return sc.to
}

// transcripting is embedded by the local strategies to optionally record
// per-communication-round summaries and inject message loss. It also holds
// the run's network and round scratch.
type transcripting struct {
	record   bool
	lossRate float64
	lossSeed int64
	nw       *commnet.Network
	sc       scratch
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
// (Theorem 3.7), two communication rounds per scheduling round. A Fix value
// holds per-run scratch and must not be shared by concurrent runs.
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
	failed := s.sc.sendToAlternative(s.nw, ctx, ctx.Arrivals, 0)
	s.sc.sendToAlternative(s.nw, ctx, failed, 1)
}

// sendToAlternative runs one communication round: each request is sent to
// its alternative with the given index (requests without one fail
// immediately); resources admit and accept; the failures are returned in ID
// order. The result is sc.failed[alt], valid until the next round that
// sends to alt.
func (sc *scratch) sendToAlternative(nw *commnet.Network, ctx *core.RoundContext, reqs []*core.Request, alt int) []*core.Request {
	to := sc.outbox(ctx.N)
	failed := sc.failed[alt][:0]
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
		for _, m := range sc.accept(ctx.W, i, received[i]) {
			failed = append(failed, m.Req)
		}
		for _, m := range dropped[i] {
			failed = append(failed, m.Req)
		}
	}
	slices.SortFunc(failed, func(a, b *core.Request) int { return cmp.Compare(a.ID, b.ID) })
	sc.failed[alt] = failed
	return failed
}
