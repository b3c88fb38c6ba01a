package matching

import (
	"math/rand"
	"testing"
)

func TestPreferLowAtClassBasicSwap(t *testing.T) {
	// Left 0 (old) matched at a class-1 slot, left 1 (young) at the class-0
	// slot; 0 can be relocated into 1's class-1 seat: swap.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0) // class 0
	g.AddEdge(0, 1) // class 1
	g.AddEdge(1, 0)
	g.AddEdge(1, 1)
	classOf := []int32{0, 1}
	m := NewMatching(2, 2)
	m.Match(0, 1)
	m.Match(1, 0)
	swaps := new(Scratch).PreferLowAtClass(g, m, classOf, 0)
	if swaps != 1 {
		t.Fatalf("swaps = %d", swaps)
	}
	if m.L2R[0] != 0 || m.L2R[1] != 1 {
		t.Fatalf("swap wrong: %v", m.L2R)
	}
}

func TestPreferLowAtClassRevertsWhenOccupantStuck(t *testing.T) {
	// The young occupant's only slot is the class-0 one: no relocation, so
	// the old request cannot displace it.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // young left 1 has nowhere else
	classOf := []int32{0, 1}
	m := NewMatching(2, 2)
	m.Match(0, 1)
	m.Match(1, 0)
	if swaps := new(Scratch).PreferLowAtClass(g, m, classOf, 0); swaps != 0 {
		t.Fatalf("swaps = %d", swaps)
	}
	if m.L2R[0] != 1 || m.L2R[1] != 0 {
		t.Fatalf("failed swap not reverted: %v", m.L2R)
	}
}

func TestPreferLowAtClassOlderOccupantKept(t *testing.T) {
	// The occupant of the class-0 slot is older than the challenger:
	// nothing moves.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 0)
	g.AddEdge(1, 1)
	classOf := []int32{0, 1}
	m := NewMatching(2, 2)
	m.Match(0, 0)
	m.Match(1, 1)
	if swaps := new(Scratch).PreferLowAtClass(g, m, classOf, 0); swaps != 0 {
		t.Fatalf("swaps = %d", swaps)
	}
	if m.L2R[0] != 0 {
		t.Fatal("older occupant displaced")
	}
}

func TestPreferLowAtClassClassNeutralRelocation(t *testing.T) {
	// The displaced occupant must land in a slot of the *same class* as the
	// challenger's old slot, keeping the class-count vector intact even
	// when a cheaper (earlier-class) free slot exists for it.
	g := NewGraph(2, 4)
	classOf := []int32{0, 1, 1, 2}
	// Old left 0 at class-1 slot 1; young left 1 at class-0 slot 0.
	// Left 1 can also use slot 2 (class 1, free) and slot 3 (class 2, free).
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	m := NewMatching(2, 4)
	m.Match(0, 1)
	m.Match(1, 0)
	before := classCounts(m, classOf, 3)
	if new(Scratch).PreferLowAtClass(g, m, classOf, 0) != 1 {
		t.Fatal("expected a swap")
	}
	after := classCounts(m, classOf, 3)
	for c := range before {
		if before[c] != after[c] {
			t.Fatalf("class counts changed: %v -> %v", before, after)
		}
	}
	if m.L2R[0] != 0 || m.L2R[1] != 2 {
		t.Fatalf("expected 1 relocated to the class-1 slot 2, got %v", m.L2R)
	}
}

func TestPreferLowAtClassChainRelocation(t *testing.T) {
	// Relocating the occupant requires rerouting a third vertex.
	g := NewGraph(3, 3)
	classOf := []int32{0, 1, 1}
	g.AddEdge(0, 0) // old challenger: only the class-0 slot
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // young occupant of class 0
	g.AddEdge(1, 1) // ... can move to slot 1, displacing left 2
	g.AddEdge(2, 1)
	g.AddEdge(2, 2) // ... who moves to slot 2
	m := NewMatching(3, 3)
	m.Match(0, 1)
	m.Match(1, 0)
	m.Match(2, 2)
	// Left 2 at slot 2 already; occupant 1 relocates: slot 1 is taken by 0
	// after 0 moves... Run and verify integrity + oldest-first.
	if new(Scratch).PreferLowAtClass(g, m, classOf, 0) != 1 {
		t.Fatalf("expected a swap, got matching %v", m.L2R)
	}
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}
	if m.L2R[0] != 0 {
		t.Fatalf("oldest not at class-0 slot: %v", m.L2R)
	}
	if m.Size() != 3 {
		t.Fatal("cardinality lost")
	}
}

func TestPreferLowAtClassPreservesInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 300; trial++ {
		nl := 1 + rng.Intn(10)
		nr := 1 + rng.Intn(10)
		nClasses := 1 + rng.Intn(4)
		g := randomGraph(rng, nl, nr, 0.35)
		classOf := randomClasses(rng, nr, nClasses)
		m := lexMax(g, classOf)
		size := m.Size()
		before := classCounts(m, classOf, nClasses)
		matchedBefore := map[int]bool{}
		for l, r := range m.L2R {
			if r != None {
				matchedBefore[l] = true
			}
		}

		new(Scratch).PreferLowAtClass(g, m, classOf, 0)

		if err := Verify(g, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if m.Size() != size {
			t.Fatalf("trial %d: size changed %d -> %d", trial, size, m.Size())
		}
		after := classCounts(m, classOf, nClasses)
		if lexCompare(before, after) != 0 {
			t.Fatalf("trial %d: class counts changed %v -> %v", trial, before, after)
		}
		for l := range matchedBefore {
			if m.L2R[l] == None {
				t.Fatalf("trial %d: left %d unmatched by exchange", trial, l)
			}
		}
		// Oldest-first local optimality: no left can claim a class-0 seat
		// from a strictly younger occupant anymore (running again changes
		// nothing).
		if new(Scratch).PreferLowAtClass(g, m, classOf, 0) != 0 {
			t.Fatalf("trial %d: not a fixpoint", trial)
		}
	}
}
