package strategies

import (
	"math/rand"
	"slices"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/matching"
	"reqsched/internal/workload"
)

// refWindowGraph builds the window graph edge by edge through AddEdge, in
// the preference order buildGraph promises: per request, alternatives as
// listed, rounds ascending, units ascending. Its right adjacency is the
// lazy buildRight view. It is the reference for the one-pass fill.
func refWindowGraph(w *core.Window, reqs []*core.Request, onlyFree bool) *matching.Graph {
	n, capc, t, depth := w.N(), w.Model().Cap, w.Round(), w.Depth()
	g := matching.NewGraph(len(reqs), slots(w))
	for li, r := range reqs {
		last := min(r.Deadline(), t+depth-1)
		for _, a := range r.Alts {
			for round := t; round <= last; round++ {
				base := ((round-t)*n + a) * capc
				first := 0
				if onlyFree {
					if !w.Free(a, round) {
						continue
					}
					first = w.AssignedCount(a, round)
				}
				for u := first; u < capc; u++ {
					g.AddEdge(li, base+u)
				}
			}
		}
	}
	return g
}

// graphProbe is a strategy that, every round, checks the one-pass window
// graph against the reference over a random subset of the pending requests
// in random order, in both onlyFree modes and on one reused roundScratch,
// and then scrambles the window: it assigns random requests to random free
// slots and unassigns some again, leaving holes among a slot's cells.
type graphProbe struct {
	t      *testing.T
	rng    *rand.Rand
	sc     roundScratch
	rounds int
}

func (*graphProbe) Name() string                            { return "graph_probe" }
func (*graphProbe) Begin(n, d int)                          {}
func (*graphProbe) SupportsModel(m core.ServiceModel) error { return holdOne(m) }

func (p *graphProbe) Round(ctx *core.RoundContext) {
	p.rounds++
	reqs := slices.Clone(ctx.Pending)
	p.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	reqs = reqs[:p.rng.Intn(len(reqs)+1)]
	for _, onlyFree := range []bool{false, true} {
		want := refWindowGraph(ctx.W, reqs, onlyFree)
		got := p.sc.buildGraph(ctx.W, reqs, onlyFree).g
		sameGraph(p.t, ctx.T, onlyFree, got, want)
	}

	for _, r := range ctx.Pending {
		if ctx.W.Assigned(r) {
			if p.rng.Intn(4) == 0 {
				ctx.W.Unassign(r)
			}
			continue
		}
		if free := ctx.W.FreeSlotsFor(r); len(free) > 0 && p.rng.Intn(2) == 0 {
			s := free[p.rng.Intn(len(free))]
			ctx.W.Assign(r, s.Res, s.Round)
		}
	}
}

func numEdges(g *matching.Graph) int {
	e := 0
	for l := 0; l < g.NLeft(); l++ {
		e += len(g.Adj(l))
	}
	return e
}

func sameGraph(t *testing.T, round int, onlyFree bool, got, want *matching.Graph) {
	t.Helper()
	if got.NLeft() != want.NLeft() || got.NRight() != want.NRight() || numEdges(got) != numEdges(want) {
		t.Fatalf("round %d onlyFree=%v: graph %dx%d with %d edges, reference %dx%d with %d",
			round, onlyFree, got.NLeft(), got.NRight(), numEdges(got), want.NLeft(), want.NRight(), numEdges(want))
	}
	for l := 0; l < want.NLeft(); l++ {
		if !slices.Equal(got.Adj(l), want.Adj(l)) {
			t.Fatalf("round %d onlyFree=%v: left %d lists %v, reference %v", round, onlyFree, l, got.Adj(l), want.Adj(l))
		}
	}
	for r := 0; r < want.NRight(); r++ {
		if !slices.Equal(got.RAdj(r), want.RAdj(r)) {
			t.Fatalf("round %d onlyFree=%v: right %d lists %v, reference %v", round, onlyFree, r, got.RAdj(r), want.RAdj(r))
		}
	}
}

// TestWindowGraphMatchesEdgeByEdgeBuild holds the one-pass window graph to
// the AddEdge reference, left and right adjacency alike, under capacities
// 1–3, across random windows with holes.
func TestWindowGraphMatchesEdgeByEdgeBuild(t *testing.T) {
	for capc := 1; capc <= 3; capc++ {
		for seed := int64(1); seed <= 4; seed++ {
			tr := workload.Reusable(workload.Config{N: 2 + int(seed), D: 1 + int(seed), Rounds: 40, Seed: seed},
				core.ServiceModel{Cap: capc, Hold: 1}, 1.4)
			p := &graphProbe{t: t, rng: rand.New(rand.NewSource(seed))}
			core.Run(p, tr)
			if p.rounds < 40 {
				t.Fatalf("cap %d seed %d: probe ran %d rounds", capc, seed, p.rounds)
			}
		}
	}
}

// TestRoundClassesSlotOrderIsClassSorted checks that the slot order the
// balance routers pass to Scratch.ExtendFromRight is the (class, index)
// order of their class vector, which makes that one pass the lexicographic
// slot greedy internal/matching checks against brute force. Class 0 is the
// current round, and maxClass 2 (A_eager) folds every later round into
// class 1; maxClass 0 stands for A_balance's one class per window round. One
// scratch serves every shape, so the cached vector is checked too.
func TestRoundClassesSlotOrderIsClassSorted(t *testing.T) {
	var sc roundScratch
	for n := 1; n <= 5; n++ {
		for capc := 1; capc <= 3; capc++ {
			for depth := 1; depth <= 6; depth++ {
				for _, maxClass := range []int{0, 2} {
					sc.wg.n, sc.wg.capc, sc.wg.depth = n, capc, depth
					classes := maxClass
					if classes <= 0 {
						classes = depth
					}
					classOf, order := sc.roundClasses(classes)
					slots := depth * n * capc
					if len(classOf) != slots || len(order) != slots {
						t.Fatalf("n=%d cap=%d depth=%d maxClass=%d: %d classes and %d ordered slots, want %d",
							n, capc, depth, maxClass, len(classOf), len(order), slots)
					}
					for idx, c := range classOf {
						if want := int32(min(idx/(n*capc), classes-1)); c != want {
							t.Fatalf("n=%d cap=%d depth=%d maxClass=%d: slot %d in class %d, want %d",
								n, capc, depth, maxClass, idx, c, want)
						}
					}
					seen := make([]bool, slots)
					for i, s := range order {
						if seen[s] {
							t.Fatalf("n=%d cap=%d depth=%d maxClass=%d: slot %d listed twice", n, capc, depth, maxClass, s)
						}
						seen[s] = true
						if i == 0 {
							continue
						}
						p := order[i-1]
						if classOf[p] > classOf[s] || (classOf[p] == classOf[s] && p > s) {
							t.Fatalf("n=%d cap=%d depth=%d maxClass=%d: slot %d (class %d) precedes slot %d (class %d)",
								n, capc, depth, maxClass, p, classOf[p], s, classOf[s])
						}
					}
				}
			}
		}
	}
}
