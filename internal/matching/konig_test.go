package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKonigCoverSizeEqualsMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, 1+rng.Intn(15), 1+rng.Intn(15), 0.3)
		m := Kuhn(g)
		lefts, rights := KonigCover(g, m)
		if len(lefts)+len(rights) != m.Size() {
			t.Fatalf("trial %d: cover %d+%d != matching %d",
				trial, len(lefts), len(rights), m.Size())
		}
	}
}

func TestKonigCoverCoversEveryEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.35)
		m := Kuhn(g)
		lefts, rights := KonigCover(g, m)
		inL := make(map[int]bool, len(lefts))
		for _, l := range lefts {
			inL[l] = true
		}
		inR := make(map[int]bool, len(rights))
		for _, r := range rights {
			inR[r] = true
		}
		for l := 0; l < g.NLeft(); l++ {
			for _, r := range g.Adj(l) {
				if !inL[l] && !inR[int(r)] {
					t.Fatalf("trial %d: edge (%d,%d) uncovered", trial, l, r)
				}
			}
		}
	}
}

func TestKonigDetectsNonMaximum(t *testing.T) {
	// With a non-maximum matching the construction yields a "cover" smaller
	// than necessary only if it misses edges; verify the certificate fails
	// on a deliberately non-maximum matching of K_{2,2}.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 1)
	m := NewMatching(2, 2) // empty: certainly not maximum
	lefts, rights := KonigCover(g, m)
	covered := func(l, r int) bool {
		for _, x := range lefts {
			if x == l {
				return true
			}
		}
		for _, x := range rights {
			if x == int(r) {
				return true
			}
		}
		return false
	}
	ok := true
	for l := 0; l < 2; l++ {
		for _, r := range g.Adj(l) {
			if !covered(l, int(r)) {
				ok = false
			}
		}
	}
	if ok && len(lefts)+len(rights) == m.Size() {
		t.Fatal("empty matching produced a valid size-0 cover of a non-empty graph")
	}
}

func TestHallWitnessCertifiesDeficit(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 200; trial++ {
		// Skew the sides so deficits are common.
		g := randomGraph(rng, 4+rng.Intn(10), 1+rng.Intn(6), 0.3)
		m := Kuhn(g)
		s, nbh, deficit := HallWitness(g, m)
		if deficit == 0 {
			if s != nil || nbh != nil {
				t.Fatalf("trial %d: witness without deficit", trial)
			}
			continue
		}
		if len(nbh) != len(s)-deficit {
			t.Fatalf("trial %d: |N(S)|=%d, |S|=%d, deficit=%d", trial, len(nbh), len(s), deficit)
		}
		// N(S) must contain every neighbor of S.
		inNbh := make(map[int]bool, len(nbh))
		for _, r := range nbh {
			inNbh[r] = true
		}
		for _, l := range s {
			for _, r := range g.Adj(l) {
				if !inNbh[int(r)] {
					t.Fatalf("trial %d: neighbor %d of %d outside N(S)", trial, r, l)
				}
			}
		}
	}
}

func TestHallWitnessQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(10), 1+rng.Intn(10), 0.25)
		m := Kuhn(g)
		s, nbh, deficit := HallWitness(g, m)
		if deficit == 0 {
			return true
		}
		return len(nbh) == len(s)-deficit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
