// Incremental offline optimum. The segmented solvers in this package answer
// "what was OPT" after a segment is complete; IncrementalOpt answers "what is
// OPT so far" while a segment is still open, by maintaining a maximum matching
// (matching.Incremental) that grows one request at a time and sealing it at
// core.Segmenter's clean cuts. Max-cardinality matching is order-independent,
// so a sealed segment reports bit for bit the same optimum whatever order its
// requests arrive in; Optimum is this pass over a whole trace and
// OptimumStream the same pass over a JSONL stream.
package offline

import (
	"io"

	"reqsched/internal/core"
	"reqsched/internal/matching"
	"reqsched/internal/trace"
)

// IncrementalOpt maintains the offline optimum of an open segment as requests
// arrive, one augmenting-path search per request, and seals the segment at
// every clean cut of core.Segmenter. Slots are remapped densely: slot (res, t)
// of the current segment maps to right vertex (t-base)*n + res, where base is
// the arrival round of the segment's first request — O(1) per edge and
// allocation-free once buffers reach steady state, which is what lets the
// serve daemon's rolling-OPT worker run per-admitted-request instead of
// per-sealed-segment. Not safe for concurrent use.
type IncrementalOpt struct {
	n    int
	capc int
	hold int
	inc  *matching.Incremental
	cut  core.Segmenter
	base int     // absolute epoch of right-vertex row 0 of the open segment
	adj  []int32 // per-request neighbor buffer, reused
}

// NewIncrementalOpt returns an incremental optimum tracker for n resources
// under the unit service model.
func NewIncrementalOpt(n int) *IncrementalOpt {
	return NewIncrementalOptModel(n, core.UnitModel())
}

// NewIncrementalOptModel returns an incremental optimum tracker for n
// resources under service model m: right vertices are the (epoch, resource,
// unit) slots of the epoch relaxation, so a sealed segment reports bit for
// bit the same optimum as the batch solvers under the same model.
func NewIncrementalOptModel(n int, m core.ServiceModel) *IncrementalOpt {
	m = m.Norm()
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return &IncrementalOpt{n: n, capc: m.Cap, hold: m.Hold, inc: matching.NewIncremental(), cut: core.NewSegmenter(m)}
}

// Add feeds one request — arrival round t, deadline window d, resource
// alternatives alts — and repairs the matching. If t lies past every deadline
// of the open segment on an epoch boundary, Add first seals that segment and
// returns its optimum with sealed set. Requests must arrive in nondecreasing
// t; t may jump backwards only across a Seal.
func (o *IncrementalOpt) Add(t, d int, alts []int) (opt int, sealed bool) {
	if _, sealed = o.cut.Cut(t); sealed {
		opt = o.seal()
	}
	eLo, eHi := t/o.hold, (t+d-1)/o.hold
	if o.cut.Count() == 0 {
		o.base = eLo
	}
	o.cut.Add(t + d - 1)
	o.inc.EnsureRight((eHi - o.base + 1) * o.n * o.capc)
	o.adj = o.adj[:0]
	for _, a := range alts {
		for e := eLo; e <= eHi; e++ {
			for u := 0; u < o.capc; u++ {
				o.adj = append(o.adj, int32(((e-o.base)*o.n+a)*o.capc+u))
			}
		}
	}
	o.inc.AddLeft(o.adj)
	return opt, sealed
}

// Count returns the number of requests in the open segment.
func (o *IncrementalOpt) Count() int { return o.cut.Count() }

// Seal closes the open segment now, returning its final optimum and resetting
// the tracker for the next segment. All buffers are kept, so a long-running
// consumer allocates nothing per segment at steady state.
func (o *IncrementalOpt) Seal() int {
	o.cut.Close()
	return o.seal()
}

// seal rewinds the matcher and returns the optimum it held.
func (o *IncrementalOpt) seal() int {
	opt := o.inc.Size()
	o.inc.Rewind()
	return opt
}

// feed runs Optimum's pass on o, which must have no open segment. It is
// separate so TestIncrementalOptWork can read the matcher's work.
func (o *IncrementalOpt) feed(tr *core.Trace) int {
	opt := 0
	for t := range tr.Arrivals {
		for i := range tr.Arrivals[t] {
			r := &tr.Arrivals[t][i]
			v, _ := o.Add(r.Arrive, r.D, r.Alts)
			opt += v
		}
	}
	return opt + o.Seal()
}

// OptimumStream returns the offline optimum of a JSONL trace stream and the
// number of independent segments it falls into, reading one record at a time
// through one IncrementalOpt, so memory stays proportional to the widest open
// segment, not the stream. A header or record error stops the pass and is
// returned.
func OptimumStream(r io.Reader) (opt, nsegs int, err error) {
	sr, err := trace.NewStreamReader(r)
	if err != nil {
		return 0, 0, err
	}
	o := NewIncrementalOptModel(sr.N(), sr.Model())
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nsegs, err
		}
		v, sealed := o.Add(rec.T, rec.D, rec.Alts)
		if sealed {
			opt += v
			nsegs++
		}
	}
	if o.Count() > 0 {
		nsegs++
	}
	return opt + o.Seal(), nsegs, nil
}
