package core

// AdaptiveSource generates arrivals round by round while observing which
// requests the online algorithm has fulfilled so far. The paper's Theorem 2.6
// adversary is adaptive: in its second phase it blocks whichever colored
// request group the algorithm neglected most. Non-adaptive constructions use
// plain Traces.
type AdaptiveSource interface {
	// N returns the number of resources; D the default deadline window.
	N() int
	D() int
	// Next returns the alternative lists of the requests to inject at round
	// t (empty for none). isServed reports whether the request with the
	// given trace-wide ID has been fulfilled; IDs are assigned sequentially
	// in injection order, so the source can track the IDs of its own
	// requests by counting. Next is called for every round until it has
	// returned Done.
	Next(t int, isServed func(id int) bool) [][]int
	// Done reports that no further requests will be injected at round t or
	// later; the engine then runs the window dry and stops.
	Done(t int) bool
}

// RunAdaptiveObserved simulates strategy s against an adaptive adversary,
// handing each round's generated arrivals to observe as they are produced —
// the bounded-memory primitive under RunAdaptive and the adaptive streaming
// pipeline. observe is called once per simulated round with the round number
// and that round's freshly allocated request row (nil when none arrive); the
// row is never reused, so the observer may retain it. The rounds themselves
// run on a Stepper, the same engine body as Run and the live daemon; this
// loop only turns the source's output into request rows and records which
// IDs have been served, as a dense bitmap grown in step with the
// sequentially assigned IDs.
func RunAdaptiveObserved(s Strategy, src AdaptiveSource, observe func(t int, arrivals []Request)) *Result {
	d := src.D()
	st := NewStepper(s, src.N(), d, d)
	var served []bool // indexed by request ID
	isServed := func(id int) bool { return id < len(served) && served[id] }
	st.Observe = func(f Fulfillment) { served[f.Req.ID] = true }

	var arrivals []*Request // reused across rounds; see RoundContext.Arrivals
	injectionOver, drainUntil := false, 0
	for t := 0; !injectionOver || t <= drainUntil || st.Pending() > 0; t++ {
		arrivals = arrivals[:0]
		var row []Request
		if !injectionOver {
			if src.Done(t) {
				injectionOver, drainUntil = true, t+d
			} else if specs := src.Next(t, isServed); len(specs) > 0 {
				row = make([]Request, len(specs))
				for i, alts := range specs {
					row[i] = Request{ID: len(served), Arrive: t, Alts: append([]int(nil), alts...), D: d}
					served = append(served, false)
					arrivals = append(arrivals, &row[i])
				}
			}
		}
		observe(t, row)
		st.Step(arrivals)
	}
	return st.Finish()
}

// RunAdaptive simulates strategy s against an adaptive adversary and returns
// the result together with the trace the adversary ended up generating (for
// computing the offline optimum afterwards). Callers that cannot afford the
// materialized trace stream segments through RunAdaptiveObserved instead
// (ratio.RunAdaptiveStream).
func RunAdaptive(s Strategy, src AdaptiveSource) (*Result, *Trace) {
	tr := &Trace{N: src.N(), D: src.D()}
	res := RunAdaptiveObserved(s, src, func(t int, arrivals []Request) {
		tr.Arrivals = append(tr.Arrivals, arrivals)
	})
	// Trim trailing empty rounds so Trace.Horizon is tight.
	for len(tr.Arrivals) > 0 && len(tr.Arrivals[len(tr.Arrivals)-1]) == 0 {
		tr.Arrivals = tr.Arrivals[:len(tr.Arrivals)-1]
	}
	return res, tr
}
