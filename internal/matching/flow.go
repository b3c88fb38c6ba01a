package matching

// FlowNetwork is a directed flow network for Dinic's algorithm. Dinic is the
// shared test oracle of the maximum-cardinality solvers: a bipartite maximum
// matching equals the max flow of the unit-capacity network source->left->
// right->sink, and MaxMatchingByFlow computes it independently of Kuhn and
// Incremental. It stays exported, with no non-test caller, because the OPT
// equivalence tests of internal/offline call it across the package boundary.
type FlowNetwork struct {
	n     int
	head  []int32 // head[v]: first edge index of v, -1 if none
	next  []int32 // next[e]: next edge out of the same vertex
	to    []int32
	cap   []int32
	level []int32
	iter  []int32
}

// NewFlowNetwork returns an empty network with n vertices.
func NewFlowNetwork(n int) *FlowNetwork {
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &FlowNetwork{n: n, head: head}
}

// AddEdge adds a directed edge u->v with the given capacity (and its residual
// reverse edge with capacity 0). It returns the edge index, whose flow can be
// read back with Flow.
func (f *FlowNetwork) AddEdge(u, v, capacity int) int {
	id := len(f.to)
	f.to = append(f.to, int32(v))
	f.cap = append(f.cap, int32(capacity))
	f.next = append(f.next, f.head[u])
	f.head[u] = int32(id)

	f.to = append(f.to, int32(u))
	f.cap = append(f.cap, 0)
	f.next = append(f.next, f.head[v])
	f.head[v] = int32(id + 1)
	return id
}

// Flow returns the flow currently on edge id (the amount moved onto its
// residual twin).
func (f *FlowNetwork) Flow(id int) int { return int(f.cap[id^1]) }

// MaxFlow runs Dinic's algorithm from s to t and returns the max flow value.
func (f *FlowNetwork) MaxFlow(s, t int) int {
	f.level = make([]int32, f.n)
	f.iter = make([]int32, f.n)
	total := 0
	for f.bfs(s, t) {
		copy(f.iter, f.head)
		for {
			pushed := f.dfs(int32(s), int32(t), int32(1)<<30)
			if pushed == 0 {
				break
			}
			total += int(pushed)
		}
	}
	return total
}

func (f *FlowNetwork) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	queue := []int32{int32(s)}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for e := f.head[v]; e != -1; e = f.next[e] {
			if f.cap[e] > 0 && f.level[f.to[e]] < 0 {
				f.level[f.to[e]] = f.level[v] + 1
				queue = append(queue, f.to[e])
			}
		}
	}
	return f.level[t] >= 0
}

func (f *FlowNetwork) dfs(v, t, limit int32) int32 {
	if v == t {
		return limit
	}
	for ; f.iter[v] != -1; f.iter[v] = f.next[f.iter[v]] {
		e := f.iter[v]
		u := f.to[e]
		if f.cap[e] > 0 && f.level[u] == f.level[v]+1 {
			d := f.dfs(u, t, min32(limit, f.cap[e]))
			if d > 0 {
				f.cap[e] -= d
				f.cap[e^1] += d
				return d
			}
		}
	}
	return 0
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// MaxMatchingByFlow computes the maximum matching cardinality of g via Dinic
// max flow (O(E sqrt(V)) on unit-capacity networks): the oracle the matching
// and offline tests check every maximum-cardinality solver against.
func MaxMatchingByFlow(g *Graph) int {
	nl, nr := g.NLeft(), g.NRight()
	s := nl + nr
	t := s + 1
	f := NewFlowNetwork(nl + nr + 2)
	for l := 0; l < nl; l++ {
		f.AddEdge(s, l, 1)
		for _, r := range g.Adj(l) {
			f.AddEdge(l, nl+int(r), 1)
		}
	}
	for r := 0; r < nr; r++ {
		f.AddEdge(nl+r, t, 1)
	}
	return f.MaxFlow(s, t)
}
