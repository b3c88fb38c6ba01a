// Package commnet models the communication substrate of the paper's local
// strategies (Sections 1.3 and 3.2): requests and resources exchange
// fixed-size messages in synchronous communication rounds. A resource can
// receive at most `cap` messages per communication round (the paper uses
// d, or 2d-2 for the compressed A_local_eager variant); excess messages are
// dropped, their senders notified. Admission follows the paper's LDF rule —
// latest deadline first — with ties broken towards lower request IDs, and
// high-priority tagged messages (Phase 3 of A_local_eager) are always
// admitted first.
//
// The package accounts communication rounds and message totals, which is the
// cost measure for local strategies: "the time to exchange information in a
// distributed system usually by far dominates the time of internal
// computations."
package commnet

import (
	"cmp"
	"math/rand"
	"slices"

	"reqsched/internal/core"
)

// Msg is one fixed-size message about a request, addressed to a resource.
type Msg struct {
	// Req is the request the message is about (also its deadline carrier
	// for the LDF admission rule).
	Req *core.Request
	// Priority marks the high-priority tag of A_local_eager's Phase 3: the
	// message is admitted ahead of untagged ones.
	Priority bool
	// Payload carries protocol-specific data (e.g. the request proposed for
	// relocation). May be nil.
	Payload *core.Request
}

// Network tracks communication-round and message accounting for one
// simulation run.
type Network struct {
	n   int
	cap int

	rounds   int
	messages int
	dropped  int
	lost     int

	lossRate float64
	lossRng  *rand.Rand

	transcript *Transcript
}

// InjectLoss makes every message independently vanish in transit with the
// given probability (failure injection for robustness testing). Lost
// messages are silent — unlike mailbox drops, the sender is *not* notified,
// modeling a lossy network rather than admission control. Deterministic per
// seed.
func (nw *Network) InjectLoss(rate float64, seed int64) {
	if rate < 0 || rate >= 1 {
		panic("commnet: loss rate must be in [0, 1)")
	}
	nw.lossRate = rate
	nw.lossRng = rand.New(rand.NewSource(seed))
}

// Lost returns the number of messages lost in transit so far.
func (nw *Network) Lost() int { return nw.lost }

// CommRound summarizes one communication round of a transcript.
type CommRound struct {
	// Sent counts messages sent; Delivered and Dropped its split.
	Sent, Delivered, Dropped int
	// Busiest is the largest per-resource message count this round — the
	// contention hot spot.
	Busiest int
}

// Transcript records per-communication-round summaries when enabled with
// StartTranscript; the local-strategy tests and the cluster example use it
// to inspect protocol behavior.
type Transcript struct {
	Rounds []CommRound
}

// StartTranscript begins recording round summaries (resetting any previous
// transcript).
func (nw *Network) StartTranscript() { nw.transcript = &Transcript{} }

// TranscriptRounds returns the recorded summaries (nil if never started).
func (nw *Network) TranscriptRounds() []CommRound {
	if nw.transcript == nil {
		return nil
	}
	return nw.transcript.Rounds
}

// New returns a network of n resources with per-resource, per-round receive
// capacity cap.
func New(n, cap int) *Network {
	if n < 1 || cap < 1 {
		panic("commnet: need n >= 1 and cap >= 1")
	}
	return &Network{n: n, cap: cap}
}

// Cap returns the per-resource receive capacity.
func (nw *Network) Cap() int { return nw.cap }

// Totals returns the number of communication rounds executed and messages
// sent so far.
func (nw *Network) Totals() (rounds, messages int) { return nw.rounds, nw.messages }

// Dropped returns the number of messages lost to capacity so far.
func (nw *Network) Dropped() int { return nw.dropped }

// Deliver executes one communication round. to[i] holds the messages
// addressed to resource i; the returned received[i] holds the at most cap
// admitted messages (priority first, then latest deadline first, ties by
// lower request ID) and rejected[i] the dropped ones, whose senders are
// notified per the model. A round with no messages at all costs nothing and
// is not counted.
func (nw *Network) Deliver(to [][]Msg) (received, rejected [][]Msg) {
	if len(to) != nw.n {
		panic("commnet: destination slice size mismatch")
	}
	received = make([][]Msg, nw.n)
	rejected = make([][]Msg, nw.n)
	total := 0
	var cr CommRound
	for i, msgs := range to {
		total += len(msgs)
		if nw.lossRate > 0 && len(msgs) > 0 {
			kept := make([]Msg, 0, len(msgs))
			for _, m := range msgs {
				if nw.lossRng.Float64() < nw.lossRate {
					nw.lost++
					continue
				}
				kept = append(kept, m)
			}
			msgs = kept
		}
		if len(msgs) > cr.Busiest {
			cr.Busiest = len(msgs)
		}
		if len(msgs) == 0 {
			continue
		}
		sorted := append([]Msg(nil), msgs...)
		slices.SortStableFunc(sorted, func(ma, mb Msg) int {
			if ma.Priority != mb.Priority {
				if ma.Priority {
					return -1
				}
				return 1
			}
			if c := cmp.Compare(mb.Req.Deadline(), ma.Req.Deadline()); c != 0 {
				return c // latest deadline first
			}
			return cmp.Compare(ma.Req.ID, mb.Req.ID)
		})
		k := nw.cap
		if k > len(sorted) {
			k = len(sorted)
		}
		received[i] = sorted[:k]
		rejected[i] = sorted[k:]
		nw.dropped += len(sorted) - k
		cr.Delivered += k
		cr.Dropped += len(sorted) - k
	}
	if total > 0 {
		nw.rounds++
		nw.messages += total
		if nw.transcript != nil {
			cr.Sent = total
			nw.transcript.Rounds = append(nw.transcript.Rounds, cr)
		}
	}
	return received, rejected
}
