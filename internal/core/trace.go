package core

import (
	"fmt"
	"sort"
)

// Trace is a complete request sequence: the adversary's (or a workload
// generator's) input to the scheduling problem.
type Trace struct {
	// N is the number of resources.
	N int
	// D is the default deadline window length for requests added without an
	// explicit one.
	D int
	// Arrivals[t] lists the requests injected at round t, in injection order.
	Arrivals [][]Request
	// Model is the service model the trace is meant to run under. The zero
	// value is the paper's unit model (cap=1, hold=1) — see ServiceModel.Norm
	// — so traces built before the model existed keep their meaning.
	Model ServiceModel
}

// NumRequests returns the total number of requests in the trace.
func (tr *Trace) NumRequests() int {
	n := 0
	for _, rs := range tr.Arrivals {
		n += len(rs)
	}
	return n
}

// MaxD returns the largest deadline window of any request (at least tr.D).
func (tr *Trace) MaxD() int {
	d := tr.D
	for _, rs := range tr.Arrivals {
		for i := range rs {
			if rs[i].D > d {
				d = rs[i].D
			}
		}
	}
	return d
}

// Horizon returns the number of rounds a simulation must run so every request
// either is fulfilled or expires: one past the latest deadline.
func (tr *Trace) Horizon() int {
	h := 0
	for _, rs := range tr.Arrivals {
		for i := range rs {
			if dl := rs[i].Deadline() + 1; dl > h {
				h = dl
			}
		}
	}
	return h
}

// Validate checks the structural invariants of the trace: IDs are the global
// injection order, arrival rounds match positions, alternatives are distinct
// in-range resources, and windows are positive. Returns the first violation.
func (tr *Trace) Validate() error {
	if tr.N < 1 {
		return fmt.Errorf("trace: N=%d < 1", tr.N)
	}
	if tr.D < 1 {
		return fmt.Errorf("trace: D=%d < 1", tr.D)
	}
	if err := tr.Model.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	next := 0
	// seen[a] == gen marks resource a as already named by the current request;
	// bumping gen per request resets the table without reallocating, so the
	// duplicate check costs one allocation per Validate, not one per request.
	seen := make([]int, tr.N)
	gen := 0
	for t, rs := range tr.Arrivals {
		for i := range rs {
			r := &rs[i]
			if r.ID != next {
				return fmt.Errorf("trace: request at round %d pos %d has ID %d, want %d", t, i, r.ID, next)
			}
			next++
			if r.Arrive != t {
				return fmt.Errorf("trace: %v stored at round %d", r, t)
			}
			if r.D < 1 {
				return fmt.Errorf("trace: %v has non-positive window", r)
			}
			if len(r.Alts) < 1 {
				return fmt.Errorf("trace: %v has no alternatives", r)
			}
			gen++
			for _, a := range r.Alts {
				if a < 0 || a >= tr.N {
					return fmt.Errorf("trace: %v names resource %d outside [0,%d)", r, a, tr.N)
				}
				if seen[a] == gen {
					return fmt.Errorf("trace: %v repeats alternative %d", r, a)
				}
				seen[a] = gen
			}
		}
	}
	return nil
}

// Requests returns pointers to all requests in ID order. The pointers refer
// into the trace's own storage; callers must not mutate them while a
// simulation is running.
func (tr *Trace) Requests() []*Request {
	out := make([]*Request, 0, tr.NumRequests())
	for t := range tr.Arrivals {
		for i := range tr.Arrivals[t] {
			out = append(out, &tr.Arrivals[t][i])
		}
	}
	return out
}

// Builder incrementally constructs a valid Trace, assigning request IDs in
// injection order. Arrivals may be added out of round order; Build sorts the
// rounds but the per-round injection order (and thus the ID order within a
// round) is the order of Add calls.
type Builder struct {
	n, d    int
	model   ServiceModel
	nextID  int
	pending []Request
}

// NewBuilder returns a Builder for n resources and default window d.
func NewBuilder(n, d int) *Builder {
	if n < 1 || d < 1 {
		panic(fmt.Sprintf("core: invalid builder params n=%d d=%d", n, d))
	}
	return &Builder{n: n, d: d}
}

// N returns the number of resources the builder was created with.
func (b *Builder) N() int { return b.n }

// D returns the default deadline window.
func (b *Builder) D() int { return b.d }

// SetModel sets the service model the built traces will carry. The zero value
// (never calling SetModel) keeps the unit model.
func (b *Builder) SetModel(m ServiceModel) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	b.model = m
}

// Add injects one request at round t with the default window and the given
// alternatives (in preference order). It returns the assigned ID.
func (b *Builder) Add(t int, alts ...int) int {
	return b.AddWindow(t, b.d, alts...)
}

// AddWindow injects one request at round t with an explicit window d.
func (b *Builder) AddWindow(t, d int, alts ...int) int {
	return b.add(t, d, 0, alts)
}

// AddWeighted injects one request at round t with the default window and an
// explicit weight (the weighted extension; w <= 0 means the default 1).
func (b *Builder) AddWeighted(t, w int, alts ...int) int {
	return b.add(t, b.d, w, alts)
}

func (b *Builder) add(t, d, w int, alts []int) int {
	if t < 0 {
		panic(fmt.Sprintf("core: arrival round %d < 0", t))
	}
	id := b.nextID
	b.nextID++
	b.pending = append(b.pending, Request{
		ID:     id,
		Arrive: t,
		Alts:   append([]int(nil), alts...),
		D:      d,
		W:      w,
	})
	return id
}

// SetWeight sets the weight of a previously added request, addressed by the
// provisional ID returned from Add/AddWindow/AddWeighted. The weight moves
// with the request through Build's renumbering.
func (b *Builder) SetWeight(id, w int) {
	if id < 0 || id >= len(b.pending) {
		panic(fmt.Sprintf("core: SetWeight on unknown id %d", id))
	}
	b.pending[id].W = w
}

// AddGroup injects count identical requests at round t (the paper's request
// groups R_i and blocks), returning their IDs.
func (b *Builder) AddGroup(t, count int, alts ...int) []int {
	ids := make([]int, count)
	for i := range ids {
		ids[i] = b.Add(t, alts...)
	}
	return ids
}

// Block injects the paper's block(a, d) structure at round t over the
// resources res[0..a-1]: for each i, d requests directed to res[i] and
// res[(i+1) mod a]. A block(2, d) on {x, y} is the commonly used special case
// of 2d requests each naming both resources; the paper also uses block(1, d)
// (d requests pinned to a single pair). All block requests can be fulfilled
// exactly by saturating all d rounds of all a resources.
func (b *Builder) Block(t int, res ...int) {
	a := len(res)
	if a == 1 {
		panic("core: Block needs at least 2 resources; use AddGroup for block(1,d)")
	}
	for i := 0; i < a; i++ {
		b.AddGroup(t, b.d, res[i], res[(i+1)%a])
	}
}

// Build finalizes the trace. The builder can keep being used afterwards;
// subsequent Build calls include all requests added so far.
func (b *Builder) Build() *Trace {
	reqs := append([]Request(nil), b.pending...)
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].Arrive != reqs[j].Arrive {
			return reqs[i].Arrive < reqs[j].Arrive
		}
		return reqs[i].ID < reqs[j].ID
	})
	maxT := -1
	if len(reqs) > 0 {
		maxT = reqs[len(reqs)-1].Arrive
	}
	tr := &Trace{
		N:        b.n,
		D:        b.d,
		Arrivals: make([][]Request, maxT+1),
		Model:    b.model,
	}
	// Renumber IDs into global injection order (arrival round, then original
	// Add order) so the Trace invariant holds even when rounds were added out
	// of order.
	for i := range reqs {
		reqs[i].ID = i
		t := reqs[i].Arrive
		tr.Arrivals[t] = append(tr.Arrivals[t], reqs[i])
	}
	return tr
}
