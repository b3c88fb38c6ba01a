package matching

// CostFlowNetwork is a min-cost flow network solved by successive shortest
// augmenting paths (Bellman–Ford/SPFA, which tolerates the negative reduced
// costs that appear with zero initial potentials). It backs the monolithic
// weighted optima, MinCostMatchingLR and MaxProfitMatching. Tests also use it
// as an independent check of the slot greedy: class weights encoded as costs
// must reproduce the greedy's class counts on instances where the weights fit
// in int64.
type CostFlowNetwork struct {
	n    int
	head []int32
	next []int32
	to   []int32
	cap  []int32
	cost []int64
}

// NewCostFlowNetwork returns an empty cost-flow network with n vertices.
func NewCostFlowNetwork(n int) *CostFlowNetwork {
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &CostFlowNetwork{n: n, head: head}
}

// AddEdge adds a directed edge u->v with the given capacity and per-unit cost.
// It returns the edge index.
func (f *CostFlowNetwork) AddEdge(u, v, capacity int, cost int64) int {
	id := len(f.to)
	f.to = append(f.to, int32(v))
	f.cap = append(f.cap, int32(capacity))
	f.cost = append(f.cost, cost)
	f.next = append(f.next, f.head[u])
	f.head[u] = int32(id)

	f.to = append(f.to, int32(u))
	f.cap = append(f.cap, 0)
	f.cost = append(f.cost, -cost)
	f.next = append(f.next, f.head[v])
	f.head[v] = int32(id + 1)
	return id
}

// Flow returns the flow currently on edge id.
func (f *CostFlowNetwork) Flow(id int) int { return int(f.cap[id^1]) }

// minCostMaxFlow pushes as much flow as possible from s to t, always along a
// minimum-cost augmenting path, and returns (flow, cost). With integral
// capacities the result is the minimum-cost maximum flow.
func (f *CostFlowNetwork) minCostMaxFlow(s, t int) (flow int, cost int64) {
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
		if dist[t] >= inf64 {
			return flow, cost
		}
		// Find bottleneck and push one augmenting path.
		push := int32(1) << 30
		for v := int32(t); v != int32(s); {
			e := prevEdge[v]
			if f.cap[e] < push {
				push = f.cap[e]
			}
			v = f.to[e^1]
		}
		for v := int32(t); v != int32(s); {
			e := prevEdge[v]
			f.cap[e] -= push
			f.cap[e^1] += push
			v = f.to[e^1]
		}
		flow += int(push)
		cost += int64(push) * dist[t]
	}
}

// MinCostMatchingLR computes a maximum matching of g minimizing the sum of
// leftCost[l] + rightCost[r] over matched pairs (l, r). A nil leftCost means
// all zeros. Because all max flows have the same value, the solver maximizes
// cardinality first and minimizes cost second — the "among maximum matchings
// prefer cheap slots" shape. Left costs may be negative (the initial
// residual network is acyclic, so successive shortest paths remain correct);
// this is what lets the min-latency objective charge each pair its true
// latency t − arrive instead of the slot round alone.
func MinCostMatchingLR(g *Graph, leftCost, rightCost []int64) *Matching {
	nl, nr := g.NLeft(), g.NRight()
	s := nl + nr
	t := s + 1
	f := NewCostFlowNetwork(nl + nr + 2)
	edgeOf := make([][]int, nl)
	for l := 0; l < nl; l++ {
		lc := int64(0)
		if leftCost != nil {
			lc = leftCost[l]
		}
		f.AddEdge(s, l, 1, lc)
		edgeOf[l] = make([]int, len(g.Adj(l)))
		for i, r := range g.Adj(l) {
			edgeOf[l][i] = f.AddEdge(l, nl+int(r), 1, 0)
		}
	}
	for r := 0; r < nr; r++ {
		f.AddEdge(nl+r, t, 1, rightCost[r])
	}
	f.minCostMaxFlow(s, t)
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
