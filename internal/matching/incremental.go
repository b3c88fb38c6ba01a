package matching

// Incremental maintains a maximum matching over a bipartite graph that grows
// one left vertex at a time — the online shape of the offline optimum: each
// new request (left vertex) arrives with its slot edges, and the matching is
// repaired with a single augmenting-path search instead of recomputing
// Hopcroft–Karp over the whole graph.
//
// Correctness rests on the classic induction: if the current matching is
// maximum and one left vertex is added, the new maximum is larger by at most
// one, and any augmenting path in the extended graph must end at the new
// (free) vertex — a path avoiding it would already have augmented the old
// graph. One search from the new vertex therefore restores maximality, so
// after every AddLeft the size equals the maximum matching cardinality of the
// graph seen so far, bit for bit what HopcroftKarp reports on the same edges
// (cardinality is search-order-independent).
//
// Adjacency is stored flat (CSR): left vertex l's right neighbors occupy
// adj[start[l]:start[l+1]]. All buffers, including the stamp-based visited
// marks of the search, are reused across AddLeft calls and across Rewind, so
// a long-running consumer (the serve daemon's rolling-OPT worker) reaches a
// steady state with no per-request and no per-segment allocation. An
// Incremental is not safe for concurrent use.
type Incremental struct {
	start []int32 // CSR row starts; len = nLeft+1
	adj   []int32 // flat right-neighbor lists
	l2r   []int32 // matching, left to right (None when free)
	r2l   []int32 // matching, right to left (None when free)
	size  int

	stamp uint32
	seenR []uint32 // stamp when right vertex was visited this search

	// Dead-component pruning. When a search fails, every right it visited
	// lies in a saturated region no future augmenting path can escape: the
	// visited rights are all matched, their partners' edges all lead back
	// into the visited set, and old lefts never gain edges — so a path that
	// enters the region is trapped and a successful augmentation never
	// touches it. Those rights are marked dead (generation-stamped so Rewind
	// is O(1)) and skipped by every later search, which caps the total cost
	// of failed searches: each right is fully explored by at most one
	// failure instead of by every one. Without this, an oversubscribed
	// segment pays Θ(E) per failed insertion — the Kuhn worst case that made
	// the incremental path slower than batched Hopcroft–Karp. The one-shot
	// augmenter behind ExtendFromLeft/ExtendFromRight prunes the same way
	// within one pass.
	gen   uint32
	deadR []uint32 // gen when right vertex joined a saturated region
	trail []int32  // rights visited by the current search, for marking

	work Work // searches started and rerouted rights they marked, over the matcher's life
}

// NewIncremental returns an empty incremental matcher.
func NewIncremental() *Incremental {
	return &Incremental{start: []int32{0}, gen: 1}
}

// NLeft returns the number of left vertices added so far.
func (inc *Incremental) NLeft() int { return len(inc.l2r) }

// NRight returns the number of right vertices grown so far.
func (inc *Incremental) NRight() int { return len(inc.r2l) }

// Size returns the current matching cardinality — the maximum matching of
// every edge added so far.
func (inc *Incremental) Size() int { return inc.size }

// Work returns the search effort accumulated over the matcher's life, Rewind
// included: one search per AddLeft, and the matched rights each search
// entered to reroute their partners (a free right taken directly is not
// counted). Like Scratch.Work, the counts depend only on the inputs and the
// code, so tests pin them exactly.
func (inc *Incremental) Work() Work { return inc.work }

// MatchedRight returns the right vertex matched to left vertex l, or None.
func (inc *Incremental) MatchedRight(l int) int32 { return inc.l2r[l] }

// Rewind resets the matcher to an empty graph, keeping every buffer — the
// segment-seal operation: after a sealed segment's size is read off, the next
// segment starts from scratch without reallocating.
func (inc *Incremental) Rewind() {
	inc.start = inc.start[:1]
	inc.adj = inc.adj[:0]
	inc.l2r = inc.l2r[:0]
	inc.r2l = inc.r2l[:0]
	inc.size = 0
	inc.gen++
	if inc.gen == 0 { // wrapped: stale dead marks could read as current
		clear(inc.deadR)
		inc.gen = 1
	}
}

// EnsureRight grows the right side to at least n vertices. New vertices are
// free; growing the right side alone never changes the maximum matching.
func (inc *Incremental) EnsureRight(n int) {
	for len(inc.r2l) < n {
		inc.r2l = append(inc.r2l, None)
	}
	for len(inc.seenR) < n {
		inc.seenR = append(inc.seenR, 0)
	}
	for len(inc.deadR) < n {
		inc.deadR = append(inc.deadR, 0)
	}
}

// AddLeft appends one left vertex adjacent to the given right vertices (which
// must be < NRight(); call EnsureRight first) and runs a single augmenting
// search from it. It reports whether the matching grew. The neighbor slice is
// copied; the caller may reuse it.
func (inc *Incremental) AddLeft(neighbors []int32) bool {
	l := int32(len(inc.l2r))
	inc.adj = append(inc.adj, neighbors...)
	inc.start = append(inc.start, int32(len(inc.adj)))
	inc.l2r = append(inc.l2r, None)

	inc.stamp++
	if inc.stamp == 0 { // wrapped: every stale mark could read as visited
		clear(inc.seenR)
		inc.stamp = 1
	}
	inc.trail = inc.trail[:0]
	grew := inc.augment(l)
	inc.work.add(len(inc.trail))
	if grew {
		inc.size++
		return true
	}
	for _, r := range inc.trail { // failed: the visited region is saturated for good
		inc.deadR[r] = inc.gen
	}
	return false
}

// augment searches for an augmenting path from free left vertex l and flips
// it, mirroring the package augmenter's deterministic order: a free right
// neighbor (in listed order) is taken before any matched one is rerouted.
func (inc *Incremental) augment(l int32) bool {
	for _, r := range inc.adj[inc.start[l]:inc.start[l+1]] {
		if inc.r2l[r] == None && inc.seenR[r] != inc.stamp {
			inc.seenR[r] = inc.stamp
			inc.match(l, r)
			return true
		}
	}
	for _, r := range inc.adj[inc.start[l]:inc.start[l+1]] {
		if inc.seenR[r] == inc.stamp || inc.deadR[r] == inc.gen {
			continue
		}
		inc.seenR[r] = inc.stamp
		inc.trail = append(inc.trail, r)
		if inc.augment(inc.r2l[r]) {
			inc.match(l, r)
			return true
		}
	}
	return false
}

func (inc *Incremental) match(l, r int32) {
	inc.l2r[l] = r
	inc.r2l[r] = l
}
