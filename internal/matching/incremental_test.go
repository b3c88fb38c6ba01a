package matching

import (
	"math/rand"
	"testing"
)

// randomRows returns a random bipartite graph plus its adjacency rows.
func randomRows(rng *rand.Rand, nl, nr, deg int) [][]int32 {
	rows := make([][]int32, nl)
	for l := range rows {
		seen := map[int32]bool{}
		for k := 0; k < 1+rng.Intn(deg); k++ {
			r := int32(rng.Intn(nr))
			if !seen[r] {
				seen[r] = true
				rows[l] = append(rows[l], r)
			}
		}
	}
	return rows
}

// feed builds a Graph from rows and feeds the same rows to an Incremental.
func feed(inc *Incremental, rows [][]int32, nr int) *Graph {
	g := NewGraph(len(rows), nr)
	inc.EnsureRight(nr)
	for l, row := range rows {
		for _, r := range row {
			g.AddEdge(l, int(r))
		}
		inc.AddLeft(row)
	}
	return g
}

// TestIncrementalEqualsFlow pins the induction: after every AddLeft the
// maintained size equals the Dinic max-flow oracle on the prefix graph.
func TestIncrementalEqualsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nl, nr := 1+rng.Intn(40), 1+rng.Intn(30)
		rows := randomRows(rng, nl, nr, 4)
		inc := NewIncremental()
		inc.EnsureRight(nr)
		g := NewGraph(nl, nr)
		for l, row := range rows {
			for _, r := range row {
				g.AddEdge(l, int(r))
			}
			inc.AddLeft(row)
			// Prefix graph: only the first l+1 left vertices carry edges, the
			// rest are isolated and cannot affect the maximum.
			if want := MaxMatchingByFlow(g); inc.Size() != want {
				t.Fatalf("trial %d after left %d: incremental %d, flow %d", trial, l, inc.Size(), want)
			}
		}
	}
}

// TestIncrementalMatchingConsistent checks the mutual-pointer invariant and
// that every matched pair is a real edge.
func TestIncrementalMatchingConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, 60, 40, 5)
	inc := NewIncremental()
	feed(inc, rows, 40)
	matched := 0
	for l := 0; l < inc.NLeft(); l++ {
		r := inc.l2r[l]
		if r == None {
			continue
		}
		matched++
		found := false
		for _, rr := range rows[l] {
			if rr == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("pair (%d,%d) is not an edge", l, r)
		}
	}
	if matched != inc.Size() {
		t.Fatalf("Size %d but %d left vertices matched", inc.Size(), matched)
	}
}

// TestIncrementalRewind pins the seal contract: Rewind empties the structure
// and a reused instance reproduces a fresh one's sizes exactly.
func TestIncrementalRewind(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inc := NewIncremental()
	for round := 0; round < 10; round++ {
		nl, nr := 1+rng.Intn(30), 1+rng.Intn(25)
		rows := randomRows(rng, nl, nr, 4)
		g := feed(inc, rows, nr)
		if want := MaxMatchingByFlow(g); inc.Size() != want {
			t.Fatalf("round %d: reused incremental %d, flow %d", round, inc.Size(), want)
		}
		if inc.NLeft() != nl || inc.NRight() < nr {
			t.Fatalf("round %d: dims %dx%d, want %dx>=%d", round, inc.NLeft(), inc.NRight(), nl, nr)
		}
		inc.Rewind()
		if inc.Size() != 0 || inc.NLeft() != 0 || inc.NRight() != 0 {
			t.Fatalf("round %d: Rewind left size=%d nl=%d nr=%d", round, inc.Size(), inc.NLeft(), inc.NRight())
		}
	}
}

// TestIncrementalOrderIndependent pins the property the serve pipeline leans
// on: feeding the same left vertices in any order yields the same cardinality.
func TestIncrementalOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		nl, nr := 2+rng.Intn(30), 1+rng.Intn(20)
		rows := randomRows(rng, nl, nr, 4)
		inc := NewIncremental()
		feed(inc, rows, nr)
		want := inc.Size()
		perm := rng.Perm(nl)
		shuffled := make([][]int32, nl)
		for i, p := range perm {
			shuffled[i] = rows[p]
		}
		inc2 := NewIncremental()
		feed(inc2, shuffled, nr)
		if inc2.Size() != want {
			t.Fatalf("trial %d: shuffled %d, in-order %d", trial, inc2.Size(), want)
		}
	}
}

// BenchmarkIncrementalVsColdKuhn compares maintaining the matching across a
// growing graph against building the graph and running Kuhn from scratch at
// the end — the per-segment cost profile the serve rolling-OPT worker pays.
func BenchmarkIncrementalVsColdKuhn(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, 2000, 1500, 4)
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		inc := NewIncremental()
		for i := 0; i < b.N; i++ {
			inc.Rewind()
			inc.EnsureRight(1500)
			for _, row := range rows {
				inc.AddLeft(row)
			}
		}
	})
	b.Run("cold_kuhn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewGraph(len(rows), 1500)
			for l, row := range rows {
				for _, r := range row {
					g.AddEdge(l, int(r))
				}
			}
			Kuhn(g)
		}
	})
}
