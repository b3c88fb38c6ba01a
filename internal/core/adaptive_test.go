package core

import (
	"testing"
)

// ReplaySource replays a fixed trace through the adaptive interface; running
// a strategy against it must reproduce core.Run exactly. It is exported for
// the external test package (adaptive_replay_test.go), which runs the real
// strategies through both entry points.
type ReplaySource struct {
	Tr *Trace
}

func (r *ReplaySource) N() int { return r.Tr.N }
func (r *ReplaySource) D() int { return r.Tr.D }
func (r *ReplaySource) Done(t int) bool {
	return t >= len(r.Tr.Arrivals)
}
func (r *ReplaySource) Next(t int, isServed func(int) bool) [][]int {
	if t >= len(r.Tr.Arrivals) {
		return nil
	}
	var specs [][]int
	for i := range r.Tr.Arrivals[t] {
		specs = append(specs, r.Tr.Arrivals[t][i].Alts)
	}
	return specs
}

func TestRunAdaptiveObservesService(t *testing.T) {
	// A source that injects one request per round to resource 0 and stops
	// as soon as it observes its first request served: the isServed
	// callback must reflect completed rounds.
	src := &probeSource{}
	res, tr := RunAdaptive(greedyFirstFit{}, src)
	if res.Fulfilled == 0 {
		t.Fatal("nothing served")
	}
	if src.sawServed < 1 {
		t.Fatal("source never observed a served request")
	}
	if err := ValidateLog(tr, res.Log); err != nil {
		t.Fatal(err)
	}
}

type probeSource struct {
	injected  int
	sawServed int
}

func (p *probeSource) N() int { return 2 }
func (p *probeSource) D() int { return 2 }
func (p *probeSource) Done(t int) bool {
	return p.sawServed > 0 && t > 3
}
func (p *probeSource) Next(t int, isServed func(int) bool) [][]int {
	for id := 0; id < p.injected; id++ {
		if isServed(id) {
			p.sawServed++
			break
		}
	}
	p.injected++
	return [][]int{{0, 1}}
}

func TestRunAdaptiveEmptySource(t *testing.T) {
	src := &emptySource{}
	res, tr := RunAdaptive(greedyFirstFit{}, src)
	if res.Fulfilled != 0 || res.Requests != 0 || tr.NumRequests() != 0 {
		t.Fatalf("empty source produced work: %+v", res)
	}
}

type emptySource struct{}

func (emptySource) N() int                           { return 1 }
func (emptySource) D() int                           { return 1 }
func (emptySource) Done(t int) bool                  { return true }
func (emptySource) Next(int, func(int) bool) [][]int { return nil }

// bufferedSource injects perRound requests in each of rounds rounds, writing
// every round's alternatives into one reused buffer, as AdaptiveSource
// permits. Round t's requests name resources t%n and (t+1)%n.
type bufferedSource struct {
	n, rounds, perRound int
	specs               [][]int
	flat                []int
}

func (b *bufferedSource) N() int          { return b.n }
func (b *bufferedSource) D() int          { return 2 }
func (b *bufferedSource) Done(t int) bool { return t >= b.rounds }
func (b *bufferedSource) Next(t int, isServed func(int) bool) [][]int {
	b.flat, b.specs = b.flat[:0], b.specs[:0]
	for i := 0; i < b.perRound; i++ {
		b.flat = append(b.flat, t%b.n, (t+1)%b.n)
	}
	for i := 0; i < b.perRound; i++ {
		b.specs = append(b.specs, b.flat[2*i:2*i+2])
	}
	return b.specs
}

// TestRunAdaptiveAllocatesPerRoundNotPerRequest pins that the adaptive loop
// copies a round's alternatives into one allocation per row: sixteen times
// the requests over the same rounds may cost only amortised growth more.
// It also checks the copy: rows the observer keeps hold their own round's
// alternatives although the source reuses its buffer.
func TestRunAdaptiveAllocatesPerRoundNotPerRequest(t *testing.T) {
	const rounds = 200
	idle := strategyFunc{name: "idle", round: func(*RoundContext) {}}
	allocs := func(perRound int) float64 {
		return testing.AllocsPerRun(3, func() {
			RunAdaptiveObserved(idle, &bufferedSource{n: 4, rounds: rounds, perRound: perRound}, func(int, []Request) {})
		})
	}
	few, many := allocs(1), allocs(16)
	t.Logf("%v allocs at 1 request per round, %v at 16", few, many)
	if many-few > 40 {
		t.Errorf("%v allocs at 16 requests per round vs %v at 1: the loop allocates per request", many, few)
	}

	var rows [][]Request
	RunAdaptiveObserved(idle, &bufferedSource{n: 4, rounds: 10, perRound: 3}, func(_ int, row []Request) {
		rows = append(rows, row)
	})
	for rt, row := range rows {
		for _, r := range row {
			if len(r.Alts) != 2 || r.Alts[0] != rt%4 || r.Alts[1] != (rt+1)%4 {
				t.Fatalf("round %d row holds %v, want [%d %d]", rt, r.Alts, rt%4, (rt+1)%4)
			}
		}
	}
}
