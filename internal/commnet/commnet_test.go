package commnet

import (
	"cmp"
	"slices"
	"testing"

	"reqsched/internal/core"
)

func req(id, arrive, d int) *core.Request {
	return &core.Request{ID: id, Arrive: arrive, Alts: []int{0, 1}, D: d}
}

func TestDeliverCapAndLDF(t *testing.T) {
	nw := New(2, 2)
	// Three messages to resource 0 with different deadlines: latest deadline
	// first, so the earliest-deadline message is dropped.
	to := make([][]Msg, 2)
	to[0] = []Msg{
		{Req: req(1, 0, 1)}, // deadline 0
		{Req: req(2, 0, 3)}, // deadline 2
		{Req: req(3, 0, 2)}, // deadline 1
	}
	received, rejected := nw.Deliver(to)
	if len(received[0]) != 2 || len(rejected[0]) != 1 {
		t.Fatalf("received %d rejected %d", len(received[0]), len(rejected[0]))
	}
	if received[0][0].Req.ID != 2 || received[0][1].Req.ID != 3 {
		t.Fatalf("LDF order wrong: %d, %d", received[0][0].Req.ID, received[0][1].Req.ID)
	}
	if rejected[0][0].Req.ID != 1 {
		t.Fatalf("dropped wrong message: %d", rejected[0][0].Req.ID)
	}
	if nw.Dropped() != 1 {
		t.Fatalf("dropped count %d", nw.Dropped())
	}
}

func TestDeliverTiesByLowerID(t *testing.T) {
	nw := New(1, 1)
	to := [][]Msg{{
		{Req: req(7, 0, 2)},
		{Req: req(3, 0, 2)},
	}}
	received, _ := nw.Deliver(to)
	if received[0][0].Req.ID != 3 {
		t.Fatalf("tie should admit lower ID, got %d", received[0][0].Req.ID)
	}
}

func TestDeliverPriorityFirst(t *testing.T) {
	nw := New(1, 1)
	to := [][]Msg{{
		{Req: req(1, 0, 9)},                 // latest deadline but untagged
		{Req: req(2, 0, 1), Priority: true}, // tagged wins
	}}
	received, _ := nw.Deliver(to)
	if received[0][0].Req.ID != 2 {
		t.Fatalf("priority message not admitted first")
	}
}

func TestAccountingSkipsEmptyRounds(t *testing.T) {
	nw := New(3, 2)
	nw.Deliver(make([][]Msg, 3)) // no messages: free
	if r, m := nw.Totals(); r != 0 || m != 0 {
		t.Fatalf("empty round counted: %d rounds %d msgs", r, m)
	}
	to := make([][]Msg, 3)
	to[1] = []Msg{{Req: req(1, 0, 2)}}
	to[2] = []Msg{{Req: req(2, 0, 2)}, {Req: req(3, 0, 2)}}
	nw.Deliver(to)
	if r, m := nw.Totals(); r != 1 || m != 3 {
		t.Fatalf("accounting wrong: %d rounds %d msgs", r, m)
	}
}

func TestDeliverDoesNotMutateInput(t *testing.T) {
	nw := New(1, 1)
	msgs := []Msg{{Req: req(1, 0, 1)}, {Req: req(2, 0, 5)}}
	nw.Deliver([][]Msg{msgs})
	if msgs[0].Req.ID != 1 || msgs[1].Req.ID != 2 {
		t.Fatal("Deliver reordered the caller's slice")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 1)
}

// deliverOracle is the original allocating Deliver: fresh result matrices and
// a sorted copy per resource every round. FuzzDeliver checks the in-place
// Deliver against it.
func deliverOracle(nw *Network, to [][]Msg) (received, rejected [][]Msg) {
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

// FuzzDeliver drives one Network through Deliver and one through
// deliverOracle with the same sequence of communication rounds, decoded from
// the fuzz bytes, and compares every result and counter after each round.
// The sequence exercises the reuse of the network's buffer across rounds;
// small deadline and ID ranges force ties, and each message carries its own
// *Request so that the stable order of full ties is compared too. Every
// input runs twice, without and with message loss (same seed on both
// sides), always with the transcript on.
//
// Input layout: n-1, cap-1, loss seed, then per round a message count
// followed by two bytes per message: destination (low 3 bits) and priority
// (bit 7); deadline offset (low 2 bits) and ID (bits 2-4).
func FuzzDeliver(f *testing.F) {
	f.Add([]byte{3, 1, 9, 5, 0x00, 0x01, 0x00, 0x05, 0x80, 0x02, 0x01, 0x0c, 0x00, 0x01, 2, 0x02, 0x03, 0x82, 0x00})
	f.Add([]byte{0, 0, 1, 4, 0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x80, 0x00, 0, 3, 0x00, 0x1f, 0x00, 0x1f, 0x00, 0x1f})
	f.Add([]byte{7, 3, 200, 12, 0x07, 0x11, 0x06, 0x12, 0x05, 0x13, 0x84, 0x01, 0x83, 0x02, 0x02, 0x1c,
		0x01, 0x1d, 0x00, 0x1e, 0x07, 0x00, 0x07, 0x00, 0x87, 0x03, 0x06, 0x07, 1, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, capacity, seed := 1+int(data[0]%8), 1+int(data[1]%4), int64(data[2])
		rounds := data[3:]
		for _, loss := range []bool{false, true} {
			nw, ref := New(n, capacity), New(n, capacity)
			nw.StartTranscript()
			ref.StartTranscript()
			if loss {
				nw.InjectLoss(0.3, seed)
				ref.InjectLoss(0.3, seed)
			}
			for step, rest := 0, rounds; len(rest) > 0; step++ {
				count := int(rest[0] % 16)
				rest = rest[1:]
				to := make([][]Msg, n)
				for k := 0; k < count && len(rest) >= 2; k++ {
					a, b := rest[0], rest[1]
					rest = rest[2:]
					r := &core.Request{ID: int(b>>2) % 8, Arrive: 0, Alts: []int{0}, D: 1 + int(b%4)}
					dest := int(a%8) % n
					to[dest] = append(to[dest], Msg{Req: r, Priority: a&0x80 != 0})
				}
				sent := make([][]Msg, n)
				for i := range to {
					sent[i] = slices.Clone(to[i])
				}
				got, gotRej := nw.Deliver(to)
				want, wantRej := deliverOracle(ref, to)
				for i := 0; i < n; i++ {
					if !slices.Equal(to[i], sent[i]) {
						t.Fatalf("loss=%v round %d: Deliver changed to[%d]", loss, step, i)
					}
					if !slices.Equal(got[i], want[i]) || !slices.Equal(gotRej[i], wantRej[i]) {
						t.Fatalf("loss=%v round %d resource %d: received %v rejected %v, oracle %v %v",
							loss, step, i, got[i], gotRej[i], want[i], wantRej[i])
					}
				}
				gr, gm := nw.Totals()
				wr, wm := ref.Totals()
				if gr != wr || gm != wm || nw.Dropped() != ref.Dropped() || nw.Lost() != ref.Lost() {
					t.Fatalf("loss=%v round %d: totals %d/%d dropped %d lost %d, oracle %d/%d %d %d",
						loss, step, gr, gm, nw.Dropped(), nw.Lost(), wr, wm, ref.Dropped(), ref.Lost())
				}
				if !slices.Equal(nw.TranscriptRounds(), ref.TranscriptRounds()) {
					t.Fatalf("loss=%v round %d: transcript %v, oracle %v",
						loss, step, nw.TranscriptRounds(), ref.TranscriptRounds())
				}
			}
		}
	})
}
