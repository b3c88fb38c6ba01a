package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// The window indexes its assignments in a ring keyed by ID & mask. These
// tests hold it to a map oracle under random Assign / Unassign / consume /
// advance / Reset sequences whose request IDs run far past the ring's size,
// with occasional jumps in the ID sequence that force the ring to grow.

type slotOracle struct{ res, round int }

// runWindowIndex decodes one input: the first bytes pick the shape of the
// window, every further byte one operation.
func runWindowIndex(t *testing.T, seed uint64, ops []byte) {
	if len(ops) < 3 {
		return
	}
	if len(ops) > 400 {
		ops = ops[:400]
	}
	rng := rand.New(rand.NewPCG(seed, uint64(len(ops))))
	n, depth := 1+int(ops[0]%4), 1+int(ops[1]%5)
	m := ServiceModel{Cap: 1 + int(ops[2]%3), Hold: 1 + int(ops[2]/3%2)}
	w := NewWindowModel(n, depth, m)
	oracle := map[int]slotOracle{} // by request ID
	var live []*Request            // requests not yet past their deadline
	nextID := int(rng.Uint64N(1 << 20))

	for step, op := range ops[3:] {
		switch op % 8 {
		case 0, 1, 2: // a new request, assigned to a random free slot if any
			if op%32 == 0 {
				nextID += int(rng.IntN(3000)) // a jump in the ID sequence
			}
			r := &Request{ID: nextID, Arrive: w.Round(), D: 1 + rng.IntN(depth+1)}
			nextID++
			for _, a := range rng.Perm(n)[:1+rng.IntN(n)] {
				r.Alts = append(r.Alts, a)
			}
			live = append(live, r)
			if free := w.FreeSlotsFor(r); len(free) > 0 {
				s := free[rng.IntN(len(free))]
				w.Assign(r, s.Res, s.Round)
				oracle[r.ID] = slotOracle{s.Res, s.Round}
			}
		case 3: // reassign a live unassigned request
			if len(live) == 0 {
				break
			}
			r := live[rng.IntN(len(live))]
			if _, ok := oracle[r.ID]; ok {
				break
			}
			if free := w.FreeSlotsFor(r); len(free) > 0 {
				s := free[rng.IntN(len(free))]
				w.Assign(r, s.Res, s.Round)
				oracle[r.ID] = slotOracle{s.Res, s.Round}
			}
		case 4: // unassign a live request (a no-op when it holds nothing)
			if len(live) > 0 {
				r := live[rng.IntN(len(live))]
				w.Unassign(r)
				delete(oracle, r.ID)
			}
		case 5, 6: // serve the current row and slide the window
			for _, r := range live {
				if s, ok := oracle[r.ID]; ok && s.round == w.Round() {
					w.consume(r)
					delete(oracle, r.ID)
				}
			}
			w.advance()
			kept := live[:0]
			for _, r := range live {
				if r.Deadline() >= w.Round() {
					kept = append(kept, r)
				}
			}
			live = kept
		case 7:
			w.Reset()
			clear(oracle)
		}
		checkWindowIndex(t, fmt.Sprintf("step %d (op %d)", step, op), w, live, oracle)
	}
}

// checkWindowIndex compares every query of the index with the oracle, and
// checks that UnitOf numbers a slot's requests as AppendAssignments lists
// them.
func checkWindowIndex(t *testing.T, at string, w *Window, live []*Request, oracle map[int]slotOracle) {
	t.Helper()
	if w.NumAssigned() != len(oracle) {
		t.Fatalf("%s: NumAssigned %d, oracle %d", at, w.NumAssigned(), len(oracle))
	}
	for _, r := range live {
		want, wantOK := oracle[r.ID]
		res, round, ok := w.AssignmentOf(r)
		if ok != wantOK || w.Assigned(r) != wantOK || (ok && (res != want.res || round != want.round)) {
			t.Fatalf("%s: request %d at (%d,%d,%v), Assigned %v; oracle (%d,%d,%v)",
				at, r.ID, res, round, ok, w.Assigned(r), want.res, want.round, wantOK)
		}
	}
	prev, unit := Assignment{Res: -1}, 0
	for _, a := range w.Snapshot() {
		if a.Res != prev.Res || a.Round != prev.Round {
			prev, unit = a, 0
		}
		res, round, u, ok := w.UnitOf(a.Req)
		if !ok || res != a.Res || round != a.Round || u != unit {
			t.Fatalf("%s: UnitOf(%d) = (%d,%d,%d,%v), snapshot lists it at (%d,%d) unit %d",
				at, a.Req.ID, res, round, u, ok, a.Res, a.Round, unit)
		}
		unit++
	}
}

func FuzzWindowIndex(f *testing.F) {
	f.Add(uint64(1), []byte{3, 2, 0, 0, 1, 2, 5, 0, 1, 4, 5, 6, 7, 0, 1})
	f.Add(uint64(2), []byte{1, 4, 4, 0, 0, 0, 0, 32, 64, 5, 3, 3, 4, 6, 0, 96})
	f.Add(uint64(3), []byte{2, 3, 1, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(runWindowIndex)
}

// TestWindowIndexMatchesOracle is the fuzz target's property over a fixed
// batch of long generated inputs, so plain `go test` covers ID sequences
// that wrap the ring many times and jump far enough to grow it.
func TestWindowIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 26))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 3+rng.IntN(398))
		for j := range ops {
			ops[j] = byte(rng.IntN(256))
		}
		runWindowIndex(t, rng.Uint64(), ops)
	}
}

// TestWindowIndexGrowsOnCollision pins the growth rule: two held requests
// whose IDs agree modulo the ring size make the ring double until they no
// longer share an entry, and both stay findable.
func TestWindowIndexGrowsOnCollision(t *testing.T) {
	w := NewWindow(2, 2)
	size := len(w.where)
	a := &Request{ID: 5, Alts: []int{0}, D: 2}
	b := &Request{ID: 5 + 4*size, Alts: []int{1}, D: 2}
	w.Assign(a, 0, 0)
	w.Assign(b, 1, 1)
	if got := len(w.where); got != 8*size {
		t.Fatalf("ring of %d entries after IDs %d and %d, want %d", got, a.ID, b.ID, 8*size)
	}
	if res, round, ok := w.AssignmentOf(a); !ok || res != 0 || round != 0 {
		t.Fatalf("request %d at (%d,%d,%v)", a.ID, res, round, ok)
	}
	if res, round, ok := w.AssignmentOf(b); !ok || res != 1 || round != 1 {
		t.Fatalf("request %d at (%d,%d,%v)", b.ID, res, round, ok)
	}
}
