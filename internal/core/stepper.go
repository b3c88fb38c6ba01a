package core

import "fmt"

// Stepper drives the round engine one round at a time: expire, admit this
// round's arrivals, let the strategy (re)compute the schedule, serve the
// current row, slide the window. It is the only engine body: Run /
// RunChecked / RunWithSeries feed it a materialized trace round by round,
// RunAdaptiveObserved feeds it the rows an adaptive adversary generates, and
// the live serving daemon feeds it arrivals as they come in off the network.
// All of them therefore produce bit-identical schedules on the same arrival
// sequence — the property the serve-mode equivalence checks pin.
//
// All per-round scratch — the pending buffer, the round context — is
// allocated once and reused, so a simulation's allocation cost is dominated
// by the strategy, not the engine.
type Stepper struct {
	s       Strategy
	n, d    int
	t       int
	w       *Window
	res     *Result
	pending []*Request
	ctx     RoundContext

	// KeepLog appends every fulfillment to Result.Log (the batch engine's
	// default). Long-running daemons disable it to keep memory bounded and
	// watch fulfillments through Observe instead.
	KeepLog bool
	// TrackBacklog makes Step count pending requests holding no slot (the
	// per-round series' Backlog column); it costs a window lookup per pending
	// request, so it is off unless a series is being collected.
	TrackBacklog bool
	// Observe, if non-nil, is called once per fulfillment as it is served,
	// before Step returns. The live daemon hooks its latency histogram and
	// rolling-ratio accounting here.
	Observe func(Fulfillment)
}

// NewStepper returns a stepper for strategy s over n resources with default
// deadline window d and schedule lookahead depth (clamped up to d), under the
// unit service model. It calls s.Begin and positions the engine at round 0.
func NewStepper(s Strategy, n, d, depth int) *Stepper {
	return NewStepperModel(s, n, d, depth, UnitModel())
}

// NewStepperModel is NewStepper under an explicit service model. It panics if
// the strategy does not support m (see CheckModelSupport); callers that need
// a graceful error check support before constructing.
func NewStepperModel(s Strategy, n, d, depth int, m ServiceModel) *Stepper {
	if n < 1 || d < 1 {
		panic(fmt.Sprintf("core: invalid stepper params n=%d d=%d", n, d))
	}
	if err := CheckModelSupport(s, m); err != nil {
		panic(err)
	}
	if depth < d {
		depth = d
	}
	w := NewWindowModel(n, depth, m)
	s.Begin(n, d)
	st := &Stepper{
		s: s, n: n, d: d, w: w,
		res: &Result{
			Strategy:    s.Name(),
			N:           n,
			D:           d,
			PerResource: make([]int, n),
		},
		KeepLog: true,
	}
	st.ctx.N = n
	st.ctx.D = d
	st.ctx.W = w
	return st
}

// Round returns the round the next Step will simulate.
func (st *Stepper) Round() int { return st.t }

// Pending returns the number of live requests (arrived, unfulfilled,
// deadline not yet expired at the last completed round).
func (st *Stepper) Pending() int { return len(st.pending) }

// Depth returns the schedule window's lookahead depth in rounds.
func (st *Stepper) Depth() int { return st.w.Depth() }

// Model returns the service model the engine runs under.
func (st *Stepper) Model() ServiceModel { return st.w.Model() }

// Occupancy returns how many capacity units of resource res are busy at the
// round the next Step will simulate — holds of already-served requests plus
// any assignment planned for that round. The live daemon exposes these as
// per-resource gauges.
func (st *Stepper) Occupancy(res int) int { return st.w.OccupancyAt(res, st.t) }

// Result returns the running totals. The pointer stays live across Steps;
// callers must treat it as read-only and only look between Step calls.
func (st *Stepper) Result() *Result { return st.res }

// Step simulates one round with the given arrivals and advances the engine.
// Arrivals must carry Arrive == Round() and globally increasing IDs in
// injection order (the trace invariant); the slice itself may be reused by
// the caller after Step returns, but the *Request values must stay alive
// until served or expired.
func (st *Stepper) Step(arrivals []*Request) RoundStats {
	t := st.t
	var rs RoundStats
	rs.T = t
	// 1. Expire requests whose deadline has passed. (Assigned requests can
	// never expire: assignments are validated against deadlines and served
	// when their slot becomes current.)
	live := st.pending[:0]
	for _, r := range st.pending {
		if r.Deadline() < t {
			st.res.Expired++
			rs.Expired++
		} else {
			live = append(live, r)
		}
	}
	// 2. Receive new requests.
	st.pending = append(live, arrivals...)
	st.res.Requests += len(arrivals)

	// 3. Let the strategy (re)compute the schedule.
	st.ctx.T = t
	st.ctx.Arrivals = arrivals
	st.ctx.Pending = st.pending
	st.s.Round(&st.ctx)

	rs.Arrived = len(arrivals)

	// 4. Serve the current row. A pending request is served now exactly when
	// the row holds it in a cell of one of its alternatives, so pending is
	// filtered against the row before the row is released. Serving consumes
	// the storage cell; under a general model the occupancy of the hold span
	// stays busy until those rounds slide past the window (under the unit
	// model there is no occupancy, and consuming is releasing the slot).
	st.pending = st.w.dropHeldAt(t, st.pending)
	served := 0
	capc := st.w.model.Cap
	row := st.w.rows[t%st.w.depth]
	for i := 0; i < st.n; i++ {
		started := 0
		for c := i * capc; c < (i+1)*capc; c++ {
			r := row[c]
			if r == nil {
				continue
			}
			st.w.consume(r)
			started++
			st.res.Fulfilled++
			st.res.WeightFulfilled += r.Weight()
			st.res.LatencySum += t - r.Arrive
			st.res.PerResource[i]++
			f := Fulfillment{Req: r, Res: i, Round: t}
			if st.KeepLog {
				st.res.Log = append(st.res.Log, f)
			}
			if st.Observe != nil {
				st.Observe(f)
			}
			served++
		}
		if started == 0 {
			rs.Idle++
		}
	}
	rs.Served = served
	rs.Pending = len(st.pending)
	if st.TrackBacklog {
		for _, r := range st.pending {
			if !st.w.Assigned(r) {
				rs.Backlog++
			}
		}
	}

	// 5. Slide the window.
	st.w.advance()
	st.t++
	return rs
}

// Finish closes the run: remaining pending requests are counted expired and
// the totals are returned. The engine must have been stepped past every
// assignment (the batch driver runs to the trace horizon; the daemon drains
// until Pending() == 0), so a surviving assignment is a programming error.
func (st *Stepper) Finish() *Result {
	st.res.Expired += len(st.pending)
	st.pending = st.pending[:0]
	if st.w.NumAssigned() > 0 {
		panic(fmt.Sprintf("core: assignments %v survived past horizon", st.w.Snapshot()))
	}
	if ca, ok := st.s.(CommAccountant); ok {
		st.res.CommRounds, st.res.Messages = ca.CommTotals()
	}
	return st.res
}
