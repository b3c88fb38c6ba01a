// Package matching provides the bipartite-matching substrate used throughout the
// reproduction: maximum matchings (Kuhn, Hopcroft–Karp), greedy maximal
// matchings, weight-class (transversal-matroid) greedy for the balance
// strategies, Mendelsohn–Dulmage merging, alternating-path exchanges, max-flow
// and min-cost-flow cross-checks, and brute-force reference solvers for tests.
//
// Graphs are bipartite with an explicit left side (requests, in the scheduling
// application) and right side (time slots). All algorithms are deterministic:
// vertices and adjacency lists are processed in insertion order, which is what
// lets the adversarial constructions of the paper force a specific matching out
// of a strategy class ("can be implemented in a way that ...").
package matching

import (
	"fmt"
	"slices"
)

// None marks an unmatched vertex in a Matching.
const None int32 = -1

// Graph is a bipartite graph with nLeft left vertices and nRight right
// vertices. Edges are stored as left-side adjacency lists in insertion order,
// and a right-side adjacency view in flat (CSR) storage. A graph built edge
// by edge (AddEdge) builds the right view lazily on first use; a graph built
// by a one-pass fill (BeginFill) writes both sides at once, into flat arrays
// that a rebuild after Reset reuses.
type Graph struct {
	nLeft  int
	nRight int
	adj    [][]int32
	edges  int
	// Reverse adjacency in CSR layout: the left neighbors of right vertex r
	// are rdata[rstart[r]:rstart[r+1]]. Invalidated (not freed) by AddEdge
	// and Reset.
	rstart    []int32
	rdata     []int32
	radjValid bool
	// One-pass fill state: ldata backs the left lists of a filled graph, fillL
	// is the left vertex whose list is being written (it starts at fillMark
	// in ldata), and fillDeg holds the promised right degrees for EndFill's
	// check.
	ldata    []int32
	fillL    int
	fillMark int
	fillDeg  []int32
}

// NewGraph returns an empty bipartite graph with the given side sizes.
func NewGraph(nLeft, nRight int) *Graph {
	return &Graph{
		nLeft:  nLeft,
		nRight: nRight,
		adj:    make([][]int32, nLeft),
	}
}

// Reset re-dimensions g to the given side sizes and removes every edge while
// keeping the allocated adjacency storage, so a graph that is rebuilt every
// round reaches a steady state with no per-round allocation.
func (g *Graph) Reset(nLeft, nRight int) {
	if nLeft <= cap(g.adj) {
		g.adj = g.adj[:nLeft]
	} else {
		g.adj = append(g.adj[:cap(g.adj)], make([][]int32, nLeft-cap(g.adj))...)
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.nLeft = nLeft
	g.nRight = nRight
	g.edges = 0
	g.radjValid = false
}

// NLeft returns the number of left vertices.
func (g *Graph) NLeft() int { return g.nLeft }

// NRight returns the number of right vertices.
func (g *Graph) NRight() int { return g.nRight }

// NumEdges returns the number of edges added so far.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge adds the edge (l, r). Duplicate edges are allowed but pointless;
// callers are expected to add each edge once. Adding an edge invalidates a
// previously built right-side adjacency view.
func (g *Graph) AddEdge(l, r int) {
	if l < 0 || l >= g.nLeft || r < 0 || r >= g.nRight {
		panic(fmt.Sprintf("matching: edge (%d,%d) out of range %dx%d", l, r, g.nLeft, g.nRight))
	}
	g.adj[l] = append(g.adj[l], int32(r))
	g.radjValid = false
	g.edges++
}

// Adj returns the right neighbors of left vertex l in insertion order.
// The returned slice must not be modified.
func (g *Graph) Adj(l int) []int32 { return g.adj[l] }

// RAdj returns the left neighbors of right vertex r, building the reverse
// adjacency on first use. The returned slice must not be modified, and is
// invalidated by the next AddEdge or Reset.
func (g *Graph) RAdj(r int) []int32 {
	if !g.radjValid {
		g.buildRight()
	}
	return g.rdata[g.rstart[r]:g.rstart[r+1]]
}

// buildRight fills the CSR reverse adjacency with a counting pass, reusing
// the backing arrays of any previous build. Left neighbors end up in
// ascending order (the insertion order of the forward lists).
func (g *Graph) buildRight() {
	g.rstart = resize(g.rstart, g.nRight+1)
	clear(g.rstart)
	g.rdata = resize(g.rdata, g.edges)
	for _, rs := range g.adj {
		for _, r := range rs {
			g.rstart[r+1]++
		}
	}
	for r := 0; r < g.nRight; r++ {
		g.rstart[r+1] += g.rstart[r]
	}
	// fill maintains the running write cursor per right vertex; shift rstart
	// back afterwards instead of keeping a second cursor array.
	for l, rs := range g.adj {
		for _, r := range rs {
			g.rdata[g.rstart[r]] = int32(l)
			g.rstart[r]++
		}
	}
	for r := g.nRight; r > 0; r-- {
		g.rstart[r] = g.rstart[r-1]
	}
	g.rstart[0] = 0
	g.radjValid = true
}

// BeginFill re-dimensions g like Reset and starts a one-pass build in which
// the left lists and the right adjacency are written together: the edges of
// left vertex 0 come first (FillEdge, in the order Adj will list them), then
// EndLeft, then those of left vertex 1, and so on; EndFill closes the build.
// deg[r] must be exactly the number of edges right vertex r will receive.
// Left neighbors of each right vertex end up ascending, as buildRight orders
// them, and RAdj needs no build afterwards.
func (g *Graph) BeginFill(nLeft, nRight int, deg []int32) {
	if len(deg) != nRight {
		panic(fmt.Sprintf("matching: %d fill degrees for %d right vertices", len(deg), nRight))
	}
	g.Reset(nLeft, nRight)
	g.rstart = resize(g.rstart, nRight+1)
	// rstart[r+1] starts as r's first position and serves as its write
	// cursor, so it ends as the end of r's list: the CSR bound rstart needs.
	g.rstart[0] = 0
	total := int32(0)
	for r, k := range deg {
		g.rstart[r+1] = total
		total += k
	}
	g.rdata = resize(g.rdata, int(total))
	g.ldata = resize(g.ldata, int(total))[:0]
	g.fillL, g.fillMark, g.fillDeg = 0, 0, deg
}

// FillEdge adds the edge (current left vertex, r) during a one-pass build.
func (g *Graph) FillEdge(r int32) {
	g.ldata = append(g.ldata, r)
	c := g.rstart[r+1]
	g.rdata[c] = int32(g.fillL)
	g.rstart[r+1] = c + 1
}

// EndLeft closes the current left vertex's list during a one-pass build.
func (g *Graph) EndLeft() {
	end := len(g.ldata)
	g.adj[g.fillL] = g.ldata[g.fillMark:end:end]
	g.fillL++
	g.fillMark = end
}

// EndFill closes a one-pass build, checking that every left vertex was
// closed and that every right vertex received exactly its promised degree.
func (g *Graph) EndFill() {
	if g.fillL != g.nLeft {
		panic(fmt.Sprintf("matching: fill closed %d of %d left vertices", g.fillL, g.nLeft))
	}
	end := int32(0)
	for r, k := range g.fillDeg {
		if end += k; g.rstart[r+1] != end {
			panic(fmt.Sprintf("matching: right vertex %d received %d edges, promised %d",
				r, g.rstart[r+1]-(end-k), k))
		}
	}
	g.edges = len(g.ldata)
	g.radjValid = true
	g.fillDeg = nil
}

// resize returns s with length n, reusing its capacity when large enough
// and growing it as append does otherwise, so a buffer that creeps up round
// after round reallocates only logarithmically often. Contents are
// unspecified.
func resize(s []int32, n int) []int32 { return slices.Grow(s[:0], n)[:n] }

// Matching is a matching in a bipartite Graph, stored as mutual pointers.
// The zero value is not usable; construct with NewMatching.
type Matching struct {
	// L2R[l] is the right vertex matched to l, or None.
	L2R []int32
	// R2L[r] is the left vertex matched to r, or None.
	R2L []int32
}

// NewMatching returns an empty matching for a graph with the given side sizes.
func NewMatching(nLeft, nRight int) *Matching {
	m := &Matching{
		L2R: make([]int32, nLeft),
		R2L: make([]int32, nRight),
	}
	for i := range m.L2R {
		m.L2R[i] = None
	}
	for i := range m.R2L {
		m.R2L[i] = None
	}
	return m
}

// Reset re-dimensions m for a graph with the given side sizes and unmatches
// everything, reusing the allocated pointer arrays when large enough.
func (m *Matching) Reset(nLeft, nRight int) {
	m.L2R = resetNone(m.L2R, nLeft)
	m.R2L = resetNone(m.R2L, nRight)
}

// resetNone returns s resized to length n (see resize) with every entry None.
func resetNone(s []int32, n int) []int32 {
	s = resize(s, n)
	for i := range s {
		s[i] = None
	}
	return s
}

// Size returns the number of matched pairs.
func (m *Matching) Size() int {
	n := 0
	for _, r := range m.L2R {
		if r != None {
			n++
		}
	}
	return n
}

// Match adds the pair (l, r), first unmatching whatever l and r were matched
// to. It therefore never leaves the structure inconsistent.
func (m *Matching) Match(l, r int) {
	if old := m.L2R[l]; old != None {
		m.R2L[old] = None
	}
	if old := m.R2L[r]; old != None {
		m.L2R[old] = None
	}
	m.L2R[l] = int32(r)
	m.R2L[r] = int32(l)
}

// UnmatchLeft removes the pair containing left vertex l, if any.
func (m *Matching) UnmatchLeft(l int) {
	if r := m.L2R[l]; r != None {
		m.R2L[r] = None
		m.L2R[l] = None
	}
}

// UnmatchRight removes the pair containing right vertex r, if any.
func (m *Matching) UnmatchRight(r int) {
	if l := m.R2L[r]; l != None {
		m.L2R[l] = None
		m.R2L[r] = None
	}
}

// Clone returns a deep copy of the matching.
func (m *Matching) Clone() *Matching {
	c := &Matching{
		L2R: make([]int32, len(m.L2R)),
		R2L: make([]int32, len(m.R2L)),
	}
	copy(c.L2R, m.L2R)
	copy(c.R2L, m.R2L)
	return c
}

// Pairs returns the matched (left, right) pairs in ascending left order.
func (m *Matching) Pairs() [][2]int {
	var ps [][2]int
	for l, r := range m.L2R {
		if r != None {
			ps = append(ps, [2]int{l, int(r)})
		}
	}
	return ps
}

// Verify checks structural consistency of m against g: mutual pointers, index
// ranges, and that every matched pair is an edge of g. It returns a descriptive
// error for the first violation found, or nil.
func Verify(g *Graph, m *Matching) error {
	if len(m.L2R) != g.nLeft || len(m.R2L) != g.nRight {
		return fmt.Errorf("matching: size mismatch: matching %dx%d vs graph %dx%d",
			len(m.L2R), len(m.R2L), g.nLeft, g.nRight)
	}
	for l, r := range m.L2R {
		if r == None {
			continue
		}
		if r < 0 || int(r) >= g.nRight {
			return fmt.Errorf("matching: L2R[%d]=%d out of range", l, r)
		}
		if m.R2L[r] != int32(l) {
			return fmt.Errorf("matching: L2R[%d]=%d but R2L[%d]=%d", l, r, r, m.R2L[r])
		}
		found := false
		for _, rr := range g.adj[l] {
			if rr == r {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("matching: pair (%d,%d) is not an edge", l, r)
		}
	}
	for r, l := range m.R2L {
		if l == None {
			continue
		}
		if l < 0 || int(l) >= g.nLeft {
			return fmt.Errorf("matching: R2L[%d]=%d out of range", r, l)
		}
		if m.L2R[l] != int32(r) {
			return fmt.Errorf("matching: R2L[%d]=%d but L2R[%d]=%d", r, l, l, m.L2R[l])
		}
	}
	return nil
}
