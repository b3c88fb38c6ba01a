package core

import (
	"fmt"
	"sort"
)

// Strategy is an online scheduling strategy. The engine calls Begin once,
// then Round for every round until the trace is exhausted and all windows
// closed. A strategy fulfills requests by assigning them to slots of the
// Window; whatever sits in the current row when Round returns is served.
type Strategy interface {
	// Name identifies the strategy in results and tables.
	Name() string
	// Begin resets the strategy for a run over n resources with default
	// window d.
	Begin(n, d int)
	// Round is called once per round with the round context. The strategy
	// may assign, move (unassign+assign), or leave requests unscheduled.
	Round(ctx *RoundContext)
}

// RoundContext is everything a strategy may look at in round T. Global
// strategies use all of it; local strategies are written against the
// message-passing substrate and only touch the window through protocol
// actions.
type RoundContext struct {
	// T is the current round.
	T int
	// N is the number of resources; D the default window length.
	N, D int
	// Arrivals are the requests injected this round, in ID order. The slice
	// is engine scratch reused between rounds: strategies may retain the
	// *Request pointers but must not retain the slice itself past Round.
	Arrivals []*Request
	// Pending are all live requests (arrived, unfulfilled, deadline not yet
	// passed), including Arrivals, in ID order. Some may hold future slots.
	// The engine (Stepper, under Run, RunAdaptive and serve) builds it as
	// the surviving requests followed by this round's Arrivals, so it is also
	// non-decreasing in Arrive: a stable sort by arrival is the identity,
	// which policy.Composite relies on to pass it to FCFS routers as is.
	// The slice is the engine's own pending set: strategies must not reorder
	// or modify it, and like Arrivals it is only valid during the Round call.
	Pending []*Request
	// W is the schedule window, positioned at round T.
	W *Window

	// unassigned is the reusable buffer behind Unassigned. The engine keeps
	// the context (and thus the buffer) alive across rounds, so strategies
	// that call Unassigned every round allocate nothing in steady state.
	unassigned []*Request
}

// Unassigned returns the pending requests that currently hold no slot, in ID
// order. Like Arrivals and Pending, the returned slice is engine scratch: it
// is valid until the next Unassigned call and must not be retained past
// Round.
func (ctx *RoundContext) Unassigned() []*Request {
	out := ctx.unassigned[:0]
	for _, r := range ctx.Pending {
		if !ctx.W.Assigned(r) {
			out = append(out, r)
		}
	}
	ctx.unassigned = out
	return out
}

// Fulfillment records that request Req was served by resource Res in round
// Round. The engine's log of fulfillments is the online algorithm's matching
// in the paper's bipartite graph G.
type Fulfillment struct {
	Req   *Request
	Res   int
	Round int
}

// Result aggregates one simulation run.
type Result struct {
	Strategy  string
	N, D      int
	Requests  int
	Fulfilled int
	Expired   int
	// LatencySum is the sum over fulfilled requests of (service round -
	// arrival round); divide by Fulfilled for the mean service delay.
	LatencySum int
	// WeightFulfilled sums the weights of fulfilled requests (equals
	// Fulfilled on unweighted traces).
	WeightFulfilled int
	// PerResource[i] counts requests served by resource i.
	PerResource []int
	// Log is the full fulfillment schedule in service order.
	Log []Fulfillment
	// CommRounds and Messages are filled by local strategies (zero for
	// global ones): total communication rounds used and messages sent.
	CommRounds int
	Messages   int
}

// MeanLatency returns the average service delay in rounds, or 0 if nothing
// was fulfilled.
func (res *Result) MeanLatency() float64 {
	if res.Fulfilled == 0 {
		return 0
	}
	return float64(res.LatencySum) / float64(res.Fulfilled)
}

// CommAccountant is implemented by strategies (the local ones) that consume
// communication rounds and messages; the engine copies the totals into the
// Result.
type CommAccountant interface {
	CommTotals() (rounds, messages int)
}

// run is the engine body shared by Run, RunChecked and RunWithSeries; series
// may be nil. It returns an error (rather than panicking) when the trace is
// invalid, so CLI tools fed hand-edited inputs can report it gracefully. The
// round loop itself lives in Stepper — the same code the live serving daemon
// drives with network arrivals — so the batch and live paths cannot drift.
func run(s Strategy, tr *Trace, series *Series) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := CheckModelSupport(s, tr.Model); err != nil {
		return nil, err
	}
	st := NewStepperModel(s, tr.N, tr.D, tr.MaxD(), tr.Model)
	st.TrackBacklog = series != nil
	st.res.Log = make([]Fulfillment, 0, tr.NumRequests())

	horizon := tr.Horizon()
	var arrivals []*Request // reused across rounds; see RoundContext.Arrivals
	for t := 0; t < horizon; t++ {
		arrivals = arrivals[:0]
		if t < len(tr.Arrivals) {
			row := tr.Arrivals[t]
			for i := range row {
				arrivals = append(arrivals, &row[i])
			}
		}
		rs := st.Step(arrivals)
		if series != nil {
			series.Rounds = append(series.Rounds, rs)
		}
	}
	return st.Finish(), nil
}

// ValidateLog checks that a fulfillment log is a feasible schedule for the
// trace: every request served at most once, within its window, at one of its
// alternatives, and no resource over-committed — under the unit model no slot
// serves two requests; under a general model no resource ever has more than
// Cap service starts inside any Hold-round sliding window. This is the
// independent end-to-end check applied to every strategy in tests.
func ValidateLog(tr *Trace, log []Fulfillment) error {
	m := tr.Model.Norm()
	servedReq := make(map[int]bool)
	var servedSlot map[[2]int]bool
	var starts map[int][]int
	if m.IsUnit() {
		servedSlot = make(map[[2]int]bool)
	} else {
		starts = make(map[int][]int)
	}
	for _, f := range log {
		r := f.Req
		if servedReq[r.ID] {
			return fmt.Errorf("core: request %d served twice", r.ID)
		}
		servedReq[r.ID] = true
		if f.Round < r.Arrive || f.Round > r.Deadline() {
			return fmt.Errorf("core: %v served at round %d outside window", r, f.Round)
		}
		if !r.HasAlt(f.Res) {
			return fmt.Errorf("core: %v served by non-alternative %d", r, f.Res)
		}
		if m.IsUnit() {
			slot := [2]int{f.Res, f.Round}
			if servedSlot[slot] {
				return fmt.Errorf("core: slot (%d,%d) used twice", f.Res, f.Round)
			}
			servedSlot[slot] = true
		} else {
			starts[f.Res] = append(starts[f.Res], f.Round)
		}
	}
	for res, rounds := range starts {
		sort.Ints(rounds)
		// Two-pointer sliding window: every Hold-round span may contain at
		// most Cap service starts (starts occupy [t, t+Hold), so any two
		// starts within Hold rounds of each other overlap).
		lo := 0
		for hi := range rounds {
			for rounds[lo] <= rounds[hi]-m.Hold {
				lo++
			}
			if hi-lo+1 > m.Cap {
				return fmt.Errorf("core: resource %d starts %d services in rounds (%d,%d], capacity %d",
					res, hi-lo+1, rounds[hi]-m.Hold, rounds[hi], m.Cap)
			}
		}
	}
	return nil
}
