package matching

// MaxProfitMatching computes a matching of g maximizing the total profit of
// matched left vertices — not necessarily a maximum-cardinality matching:
// a low-profit vertex is left unmatched if seating it would displace more
// profit than it adds. Solved by successive shortest augmenting paths on the
// profit-as-negative-cost network, stopping as soon as the best augmenting
// path no longer pays for itself. With all profits equal it degenerates to a
// maximum-cardinality matching.
//
// This powers the weighted extension of the scheduling model (requests with
// priorities): the offline optimum for "maximize total weight served".
func MaxProfitMatching(g *Graph, profit []int64) *Matching {
	nl, nr := g.NLeft(), g.NRight()
	if len(profit) != nl {
		panic("matching: profit length mismatch")
	}
	s := nl + nr
	t := s + 1
	f := NewCostFlowNetwork(nl + nr + 2)
	edgeOf := make([][]int, nl)
	for l := 0; l < nl; l++ {
		f.AddEdge(s, l, 1, -profit[l])
		edgeOf[l] = make([]int, len(g.Adj(l)))
		for i, r := range g.Adj(l) {
			edgeOf[l][i] = f.AddEdge(l, nl+int(r), 1, 0)
		}
	}
	for r := 0; r < nr; r++ {
		f.AddEdge(nl+r, t, 1, 0)
	}
	f.minCostFlowWhileNegative(s, t)
	m := NewMatching(nl, nr)
	for l := 0; l < nl; l++ {
		for i, r := range g.Adj(l) {
			if f.Flow(edgeOf[l][i]) > 0 {
				m.Match(l, int(r))
			}
		}
	}
	return m
}

// ProfitOf sums the profits of m's matched left vertices.
func ProfitOf(m *Matching, profit []int64) int64 {
	var total int64
	for l, r := range m.L2R {
		if r != None {
			total += profit[l]
		}
	}
	return total
}

// minCostFlowWhileNegative augments along minimum-cost paths only while the
// path cost is negative (each augment strictly increases total profit).
func (f *CostFlowNetwork) minCostFlowWhileNegative(s, t int) {
	const inf64 = int64(1) << 62
	dist := make([]int64, f.n)
	inQueue := make([]bool, f.n)
	prevEdge := make([]int32, f.n)
	for {
		for i := range dist {
			dist[i] = inf64
			prevEdge[i] = -1
		}
		dist[s] = 0
		queue := []int32{int32(s)}
		inQueue[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			inQueue[v] = false
			for e := f.head[v]; e != -1; e = f.next[e] {
				u := f.to[e]
				if f.cap[e] > 0 && dist[v]+f.cost[e] < dist[u] {
					dist[u] = dist[v] + f.cost[e]
					prevEdge[u] = e
					if !inQueue[u] {
						inQueue[u] = true
						queue = append(queue, u)
					}
				}
			}
		}
		if dist[t] >= 0 {
			return // no remaining profitable augmentation
		}
		for v := int32(t); v != int32(s); {
			e := prevEdge[v]
			f.cap[e]--
			f.cap[e^1]++
			v = f.to[e^1]
		}
	}
}
