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
