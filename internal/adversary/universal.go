package adversary

// Universal builds the Theorem 2.6 adaptive adversary, which forces a
// competitive ratio of at least 45/41 on *every* deterministic online
// algorithm using ten resources and 3 | d.
//
// The ten resources form five pairs. Each cycle of d rounds starts with three
// pairs blocked by a block(6,d). At round 2d/3 into the cycle the adversary
// injects 4d "colored" requests in three groups of 4d/3: first alternatives
// spread evenly over the four free resources, second alternatives over one
// blocked pair per color. In the cycle's last d/3 rounds only the free pairs
// can serve colored requests (at most 4d/3 of them). At the next cycle start
// the adversary observes which color has the most unfulfilled requests — at
// least ceil(8d/9) by averaging — and injects the next block(6,d) over the
// two free pairs plus that color's pair, killing those requests; the other
// two colors get served by their own pairs. The optimum serves everything
// (the doomed color entirely in the first d/3 window). Per cycle: 10d
// requests injected, at least ~8d/9 lost by the online algorithm.
func Universal(d, cycles int) Construction {
	if d < 3 || d%3 != 0 {
		panic("adversary: Universal needs d divisible by 3")
	}
	return Construction{
		Name:    "universal",
		Theorem: "Theorem 2.6",
		N:       10,
		D:       d,
		Bound:   45.0 / 41.0,
		Source: &universalSource{
			d:       d,
			p:       d / 3,
			cycles:  cycles,
			blocked: [3]int{0, 1, 2},
			free:    [2]int{3, 4},
		},
		TargetName: "",
	}
}

// UniversalAnyD generalizes Universal to deadlines not divisible by three,
// per the paper's closing remark on Theorem 2.6: Phase 1 is shortened to
// floor(d/3) rounds and the colored groups shrink accordingly, which costs
// only a constant per phase; the remark guarantees at least 12/11 for every
// d (45/41 asymptotically). Requires d >= 4 so the floor is positive.
func UniversalAnyD(d, cycles int) Construction {
	if d < 4 {
		panic("adversary: UniversalAnyD needs d >= 4")
	}
	bound := 12.0 / 11.0
	if d%3 == 0 {
		bound = 45.0 / 41.0
	}
	return Construction{
		Name:    "universal_anyd",
		Theorem: "Theorem 2.6 (remark)",
		N:       10,
		D:       d,
		Bound:   bound,
		Source: &universalSource{
			d:       d,
			p:       d / 3,
			cycles:  cycles,
			blocked: [3]int{0, 1, 2},
			free:    [2]int{3, 4},
		},
	}
}

// universalSource is the adaptive request generator behind Universal.
type universalSource struct {
	d      int
	p      int // Phase 1 length: d/3 rounded down for the any-d variant
	cycles int

	blocked [3]int // pair indices currently blocked (the color pairs)
	free    [2]int // pair indices currently free

	colored [3][]int // request IDs of each color group in the current cycle
	nextID  int

	// Next's result, reused from call to call: specs[i] is flat[2i:2i+2].
	specs [][]int
	flat  []int
}

// pairRes returns the two resource indices of pair p.
func pairRes(p int) [2]int { return [2]int{2 * p, 2*p + 1} }

// N implements core.AdaptiveSource.
func (u *universalSource) N() int { return 10 }

// D implements core.AdaptiveSource.
func (u *universalSource) D() int { return u.d }

// Done implements core.AdaptiveSource.
func (u *universalSource) Done(t int) bool { return t > u.cycles*u.d }

// Next implements core.AdaptiveSource. The returned specs are reused by the
// next call.
func (u *universalSource) Next(t int, isServed func(id int) bool) [][]int {
	d := u.d
	cycle, off := t/d, t%d
	u.flat = u.flat[:0]
	switch {
	case t == 0:
		u.block(u.blocked[0], u.blocked[1], u.blocked[2])
	case off == 0 && cycle >= 1 && cycle <= u.cycles:
		// Cycle boundary: pick the color with the most unfulfilled
		// requests, then re-block its pair together with the free pairs.
		worst, worstCount := 0, -1
		for c := 0; c < 3; c++ {
			unserved := 0
			for _, id := range u.colored[c] {
				if !isServed(id) {
					unserved++
				}
			}
			if unserved > worstCount {
				worst, worstCount = c, unserved
			}
		}
		doomedPair := u.blocked[worst]
		var survivors [2]int
		k := 0
		for c := 0; c < 3; c++ {
			if c != worst {
				survivors[k] = u.blocked[c]
				k++
			}
		}
		u.blocked = [3]int{u.free[0], u.free[1], doomedPair}
		u.free = survivors
		for c := range u.colored {
			u.colored[c] = u.colored[c][:0]
		}
		u.block(u.blocked[0], u.blocked[1], u.blocked[2])
	case off == d-u.p && cycle < u.cycles:
		// Phase 1: colored requests, 4p per color with first alternatives
		// spread evenly over the four free resources (p each).
		freeRes := [4]int{
			pairRes(u.free[0])[0], pairRes(u.free[0])[1],
			pairRes(u.free[1])[0], pairRes(u.free[1])[1],
		}
		for c := 0; c < 3; c++ {
			own := pairRes(u.blocked[c])
			for k := 0; k < 4*u.p; k++ {
				u.flat = append(u.flat, freeRes[k%4], own[k%2])
				u.colored[c] = append(u.colored[c], u.nextID+len(u.flat)/2-1)
			}
		}
	}
	u.specs = u.specs[:0]
	for i := 0; i < len(u.flat); i += 2 {
		u.specs = append(u.specs, u.flat[i:i+2:i+2])
	}
	u.nextID += len(u.specs)
	return u.specs
}

// block appends the alternative pairs of a block(6,d) over the six resources
// of the three given pairs to u.flat, in the paper's cyclic structure.
func (u *universalSource) block(p0, p1, p2 int) {
	res := [6]int{
		pairRes(p0)[0], pairRes(p0)[1],
		pairRes(p1)[0], pairRes(p1)[1],
		pairRes(p2)[0], pairRes(p2)[1],
	}
	for i := 0; i < 6; i++ {
		for k := 0; k < u.d; k++ {
			u.flat = append(u.flat, res[i], res[(i+1)%6])
		}
	}
}
