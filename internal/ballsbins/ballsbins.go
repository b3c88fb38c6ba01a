// Package ballsbins implements the allocation processes the paper builds on
// (Section 1.1): sequential multi-choice balls-into-bins à la Azar, Broder,
// Karlin and Upfal [ABKU94] — each ball inspects c random bins and joins the
// least loaded, dropping the maximum load from Θ(log n / log log n) to
// Θ(log log n / log c) — and a synchronous collision protocol in the style
// of the parallel games ([ACMR95], [Ste96]) that the local scheduling
// strategies inherit their communication-round model from.
//
// The scheduling connection: a request naming two alternative disks is a
// ball with two choices; the load-balancing gain the strategies exploit is
// exactly the two-choice gap this package measures.
package ballsbins

import "math/rand"

// Greedy allocates m balls into n bins sequentially; each ball draws c
// distinct bins uniformly and joins the least loaded (ties to the
// lowest-indexed drawn bin). Returns the bin loads. Deterministic per seed.
func Greedy(m, n, c int, seed int64) []int {
	if n < 1 || c < 1 || c > n {
		panic("ballsbins: need 1 <= c <= n")
	}
	rng := rand.New(rand.NewSource(seed))
	loads := make([]int, n)
	choice := make([]int, c)
	for ball := 0; ball < m; ball++ {
		sample(rng, n, choice)
		best := choice[0]
		for _, b := range choice[1:] {
			if loads[b] < loads[best] {
				best = b
			}
		}
		loads[best]++
	}
	return loads
}

// sample fills choice with len(choice) distinct values from [0, n), in draw
// order (partial Fisher–Yates over a virtual array, tracked sparsely).
func sample(rng *rand.Rand, n int, choice []int) {
	if len(choice) == 1 {
		choice[0] = rng.Intn(n)
		return
	}
	seen := make(map[int]int, len(choice))
	for i := range choice {
		j := i + rng.Intn(n-i)
		vi, ok := seen[i]
		if !ok {
			vi = i
		}
		vj, ok := seen[j]
		if !ok {
			vj = j
		}
		choice[i] = vj
		seen[i], seen[j] = vj, vi
	}
}

// MaxLoad returns the largest bin load.
func MaxLoad(loads []int) int {
	max := 0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// CollisionResult reports one run of the parallel collision protocol.
type CollisionResult struct {
	// Loads is the final allocation.
	Loads []int
	// Rounds is the number of communication rounds used.
	Rounds int
	// Unplaced counts balls still unallocated when the round budget ran
	// out (0 on success).
	Unplaced int
}

// Collision runs the synchronous c-choice collision protocol: every
// unplaced ball announces itself to its c chosen bins; a bin accepts all its
// announcements if that keeps its load at most the threshold, otherwise it
// rejects them all; rejected balls redraw fresh bins and retry next round,
// up to maxRounds. With threshold O(1) and c = 2 the protocol places all
// balls in O(log log n) rounds with high probability — the communication-
// round economics behind Section 3.2's local strategies.
func Collision(m, n, c, threshold, maxRounds int, seed int64) CollisionResult {
	if threshold < 1 {
		panic("ballsbins: threshold must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	loads := make([]int, n)
	unplaced := m
	res := CollisionResult{Loads: loads}
	choice := make([]int, c)
	for res.Rounds = 0; res.Rounds < maxRounds && unplaced > 0; res.Rounds++ {
		// Each unplaced ball announces to c freshly drawn bins.
		announcements := make([][]int, n) // bin -> announcing ball ids
		for ball := 0; ball < unplaced; ball++ {
			sample(rng, n, choice)
			for _, b := range choice {
				announcements[b] = append(announcements[b], ball)
			}
		}
		accepted := make([]bool, unplaced)
		for b := 0; b < n; b++ {
			if len(announcements[b]) == 0 {
				continue
			}
			if loads[b]+len(announcements[b]) > threshold {
				continue // collision: reject all
			}
			for _, ball := range announcements[b] {
				if !accepted[ball] {
					accepted[ball] = true
					loads[b]++
				}
			}
		}
		still := 0
		for ball := 0; ball < unplaced; ball++ {
			if !accepted[ball] {
				still++
			}
		}
		unplaced = still
	}
	res.Unplaced = unplaced
	return res
}
