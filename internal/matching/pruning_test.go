package matching

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// The augmenter prunes regions an earlier failed search of the same pass
// proved saturated. These tests hold it to the unpruned oracle
// (oracle_test.go): same matchings, same gains, on random and window-shaped
// graphs, from random starting matchings and orders, with one Scratch reused
// across graphs so marks and dead marks carry over between passes.

// pruneCase is one generated instance: a graph, a starting matching, search
// orders for both sides and a weight class per right vertex.
type pruneCase struct {
	g          *Graph
	start      *Matching
	leftOrder  []int
	rightOrder []int
	classOf    []int32
}

// genPruneCase builds an instance of roughly the given scale. kind 0 is a
// random bipartite graph; kind 1 is window-shaped like the strategies' round
// graphs: requests with 1–3 alternatives, each over a contiguous round range,
// rights laid out per (resource, round) and classed by round. Kinds 2 and 3
// are random graphs whose starting matching covers every left (kind 2) or
// every right (kind 3), so one side's extension starts with nothing free to
// reach.
func genPruneCase(rng *rand.Rand, kind, scale int) pruneCase {
	var c pruneCase
	switch kind {
	case 0:
		nl, nr := 1+rng.IntN(scale), 1+rng.IntN(scale)
		p := 0.05 + 0.55*rng.Float64()
		c.g = NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < p {
					c.g.AddEdge(l, r)
				}
			}
		}
		c.classOf = make([]int32, nr)
		for r := range c.classOf {
			c.classOf[r] = int32(rng.IntN(4))
		}
	case 2, 3:
		covered := 1 + rng.IntN(scale)
		other := covered + rng.IntN(scale/2+1)
		nl, nr := covered, other
		if kind == 3 {
			nl, nr = other, covered
		}
		partner := rng.Perm(other)[:covered]
		p := 0.05 + 0.4*rng.Float64()
		c.g = NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if (kind == 2 && partner[l] == r) || (kind == 3 && partner[r] == l) || rng.Float64() < p {
					c.g.AddEdge(l, r)
				}
			}
		}
		c.start = NewMatching(nl, nr)
		for i, j := range partner {
			if kind == 2 {
				c.start.Match(i, j)
			} else {
				c.start.Match(j, i)
			}
		}
		c.classOf = make([]int32, nr)
		for r := range c.classOf {
			c.classOf[r] = int32(rng.IntN(4))
		}
	default:
		nRes, d := 1+rng.IntN(4), 1+rng.IntN(5)
		rounds := d + rng.IntN(scale/2+1)
		nl := 1 + rng.IntN(scale)
		c.g = NewGraph(nl, nRes*rounds)
		for l := 0; l < nl; l++ {
			arrive := rng.IntN(rounds)
			last := min(arrive+d, rounds)
			for _, res := range rng.Perm(nRes)[:1+rng.IntN(min(3, nRes))] {
				for t := arrive; t < last; t++ {
					c.g.AddEdge(l, res*rounds+t)
				}
			}
		}
		c.classOf = make([]int32, nRes*rounds)
		for r := range c.classOf {
			c.classOf[r] = int32(r % rounds)
		}
	}
	if c.start == nil {
		c.start = NewMatching(c.g.NLeft(), c.g.NRight())
		q := rng.Float64()
		for _, l := range rng.Perm(c.g.NLeft()) {
			adj := c.g.Adj(l)
			if len(adj) == 0 || rng.Float64() >= q {
				continue
			}
			if r := adj[rng.IntN(len(adj))]; c.start.R2L[r] == None {
				c.start.Match(l, int(r))
			}
		}
	}
	c.leftOrder = randomOrder(rng, c.g.NLeft())
	c.rightOrder = randomOrder(rng, c.g.NRight())
	return c
}

// randomOrder returns a random sequence over [0, n): usually a permutation of
// a random subset, occasionally with repeats.
func randomOrder(rng *rand.Rand, n int) []int {
	order := rng.Perm(n)[:rng.IntN(n+1)]
	if rng.IntN(4) == 0 && n > 0 {
		for i := rng.IntN(3); i >= 0; i-- {
			order = append(order, rng.IntN(n))
		}
	}
	return order
}

func sameMatching(t *testing.T, what string, got, want *Matching, gotGain, wantGain int) {
	t.Helper()
	if gotGain != wantGain || !slices.Equal(got.L2R, want.L2R) || !slices.Equal(got.R2L, want.R2L) {
		t.Fatalf("%s: pruned gain %d L2R %v R2L %v; unpruned gain %d L2R %v R2L %v",
			what, gotGain, got.L2R, got.R2L, wantGain, want.L2R, want.R2L)
	}
}

// checkPruneCase runs every pruned entry point (on a fresh Scratch and on
// the given reused one) against the unpruned oracle on c.
func checkPruneCase(t *testing.T, sc *Scratch, c pruneCase) {
	t.Helper()
	want := refKuhn(c.g)
	got := Kuhn(c.g)
	sameMatching(t, "Kuhn", got, want, got.Size(), want.Size())
	if err := Verify(c.g, got); err != nil {
		t.Fatal(err)
	}

	type extend func(*Matching) int
	for _, op := range []struct {
		name                string
		ref, fresh, scratch extend
	}{
		{"ExtendFromLeft",
			func(m *Matching) int { return refExtendFromLeft(c.g, m, c.leftOrder) },
			func(m *Matching) int { return new(Scratch).ExtendFromLeft(c.g, m, c.leftOrder) },
			func(m *Matching) int { return sc.ExtendFromLeft(c.g, m, c.leftOrder) }},
		{"ExtendFromRight",
			func(m *Matching) int { return refExtendFromRight(c.g, m, c.rightOrder) },
			func(m *Matching) int { return new(Scratch).ExtendFromRight(c.g, m, c.rightOrder) },
			func(m *Matching) int { return sc.ExtendFromRight(c.g, m, c.rightOrder) }},
		{"ExtendFromRight/classOrder",
			func(m *Matching) int { return refExtendFromRight(c.g, m, classOrder(c.classOf)) },
			func(m *Matching) int { return new(Scratch).ExtendFromRight(c.g, m, classOrder(c.classOf)) },
			func(m *Matching) int { return sc.ExtendFromRight(c.g, m, classOrder(c.classOf)) }},
	} {
		want := c.start.Clone()
		wantGain := op.ref(want)
		got := c.start.Clone()
		sameMatching(t, op.name, got, want, op.fresh(got), wantGain)
		got = c.start.Clone()
		sameMatching(t, "Scratch."+op.name, got, want, op.scratch(got), wantGain)
	}
}

// runPruneInput decodes one fuzz input: each byte of shapes generates one
// graph (kind from the low bit, scale from the rest), then each byte of
// covered generates one whose start covers every left or every right (kind 2
// or 3 from the low bit, scale from the rest). All are checked on a single
// Scratch in sequence, so sizes grow and shrink across passes.
func runPruneInput(t *testing.T, seed uint64, shapes, covered []byte) {
	if len(shapes) > 8 {
		shapes = shapes[:8]
	}
	if len(covered) > 8 {
		covered = covered[:8]
	}
	rng := rand.New(rand.NewPCG(seed, uint64(len(shapes))))
	var sc Scratch
	for _, b := range shapes {
		checkPruneCase(t, &sc, genPruneCase(rng, int(b&1), 1+int(b>>1)%40))
	}
	for _, b := range covered {
		checkPruneCase(t, &sc, genPruneCase(rng, 2+int(b&1), 1+int(b>>1)%40))
	}
}

func FuzzAugmentPruning(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1}, []byte(nil))
	f.Add(uint64(2), []byte{79, 3, 41, 1}, []byte(nil))
	f.Add(uint64(3), []byte{20, 60, 2, 77, 5, 33}, []byte(nil))
	f.Add(uint64(4), []byte{255, 254, 9}, []byte(nil))
	// Starts that cover every left (even bytes) and every right (odd bytes).
	f.Add(uint64(5), []byte(nil), []byte{0, 1, 40, 41, 78, 79})
	f.Add(uint64(6), []byte{1}, []byte{254, 255, 20, 21})
	f.Fuzz(runPruneInput)
}

// TestAugmentPruningMatchesOracle is the fuzz target's property over fixed
// batches of generated inputs, so plain `go test` exercises it broadly: one
// of random and window-shaped graphs, one of starts covering a side.
func TestAugmentPruningMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 16))
	for i := 0; i < 400; i++ {
		shapes := make([]byte, 1+rng.IntN(6))
		for j := range shapes {
			shapes[j] = byte(rng.IntN(256))
		}
		runPruneInput(t, rng.Uint64(), shapes, nil)
	}
	rng = rand.New(rand.NewPCG(17, 17))
	for i := 0; i < 200; i++ {
		covered := make([]byte, 1+rng.IntN(6))
		for j := range covered {
			covered[j] = byte(rng.IntN(256))
		}
		runPruneInput(t, rng.Uint64(), nil, covered)
	}
}

// saturatedRegion builds a cycle of size matched vertex pairs (i, i) with each
// region vertex i on one side also adjacent to vertex i+1 on the other, plus
// k free vertices on the other side attached to region vertex 0. fromRight
// puts the free vertices on the right; otherwise the roles of the sides swap.
func saturatedRegion(size, k int, fromRight bool) (*Graph, *Matching, []int) {
	nl, nr := size, size+k
	if !fromRight {
		nl, nr = nr, nl
	}
	g := NewGraph(nl, nr)
	edge := func(u, v int) { // u on the region side, v on the free side
		if fromRight {
			g.AddEdge(u, v)
		} else {
			g.AddEdge(v, u)
		}
	}
	for i := 0; i < size; i++ {
		edge(i, i)
		edge(i, (i+1)%size)
	}
	order := make([]int, k)
	for j := range order {
		order[j] = size + j
		edge(0, size+j)
	}
	m := NewMatching(nl, nr)
	for i := 0; i < size; i++ {
		m.Match(i, i)
	}
	return g, m, order
}

// TestAugmentPruningSaturatedRegionLinear pins the cost: k free vertices that
// all reach one saturated region of size s cost s marked visits in total (the
// first failure walks the region, the rest stop at its dead boundary), not
// the k·s of the unpruned search.
func TestAugmentPruningSaturatedRegionLinear(t *testing.T) {
	const size, k = 500, 200
	for _, fromRight := range []bool{true, false} {
		g, m, order := saturatedRegion(size, k, fromRight)
		want := m.Clone()
		var wantGain int
		if fromRight {
			wantGain = refExtendFromRight(g, want, order)
		} else {
			wantGain = refExtendFromLeft(g, want, order)
		}

		var a augmenter
		a.bind(g)
		a.beginPass(len(order))
		visits, gain := 0, 0
		for _, v := range order {
			var ok bool
			if fromRight {
				ok = a.augmentFromRight(m, v)
			} else {
				ok = a.augmentFromLeft(m, v)
			}
			if ok {
				gain++
			}
			visits += len(a.trail)
		}
		a.endPass()
		sameMatching(t, "saturated region", m, want, gain, wantGain)
		if visits != size {
			t.Fatalf("fromRight=%v: %d free vertices into a region of %d cost %d visits, want %d",
				fromRight, k, size, visits, size)
		}
	}
}
