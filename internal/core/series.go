package core

// RoundStats aggregates one simulation round for time-series analysis.
type RoundStats struct {
	// T is the round index.
	T int
	// Arrived counts requests injected this round; Served those fulfilled;
	// Expired those whose deadline passed at the start of the round.
	Arrived, Served, Expired int
	// Pending counts live requests after the round (still waiting).
	Pending int
	// Backlog counts pending requests that hold no future slot.
	Backlog int
	// Idle counts resources that served nothing this round.
	Idle int
}

// Series is the per-round trace of a run, used by cmd/schedsim -series and
// the burst-analysis example.
type Series struct {
	Rounds []RoundStats
}

// RunWithSeries behaves exactly like Run but also records per-round
// statistics. Run's own results are unaffected (the collector is observe-
// only); tests assert both entry points produce identical schedules.
func RunWithSeries(s Strategy, tr *Trace) (*Result, *Series) {
	series := &Series{}
	res, err := run(s, tr, series)
	if err != nil {
		panic(err)
	}
	return res, series
}

// Run simulates strategy s over trace tr and returns the result. The trace
// must be valid; Run panics on an invalid trace since that is a programming
// error in a generator, not an input condition. Input boundaries (CLI tools
// replaying serialized traces) should use RunChecked instead.
func Run(s Strategy, tr *Trace) *Result {
	res, err := run(s, tr, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// RunChecked is Run for untrusted traces: instead of panicking on an invalid
// trace it returns the validation error, which names the first offending
// request. The simulation itself is identical to Run.
func RunChecked(s Strategy, tr *Trace) (*Result, error) {
	return run(s, tr, nil)
}
