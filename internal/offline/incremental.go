// Incremental offline optimum. The segmented solvers in this package answer
// "what was OPT" after a segment is complete; IncrementalOpt answers "what is
// OPT so far" while a segment is still open, by maintaining a maximum matching
// (matching.Incremental) that grows one request at a time. Max-cardinality
// matching is order-independent, so a sealed segment reports bit for bit the
// same optimum whatever order its requests arrive in; Optimum is this pass
// over a whole trace.
package offline

import (
	"reqsched/internal/core"
	"reqsched/internal/matching"
)

// IncrementalOpt maintains the offline optimum of an open segment as requests
// arrive, one augmenting-path search per request. Slots are remapped densely:
// slot (res, t) of the current segment maps to right vertex (t-base)*n + res,
// where base is the arrival round of the segment's first request — O(1) per
// edge and allocation-free once buffers reach steady state, which is what
// lets the serve daemon's rolling-OPT worker run per-admitted-request instead
// of per-sealed-segment. Not safe for concurrent use.
type IncrementalOpt struct {
	n       int
	capc    int
	hold    int
	inc     *matching.Incremental
	base    int     // absolute epoch of right-vertex row 0; valid when started
	started bool    // base has been fixed for the open segment
	adj     []int32 // per-request neighbor buffer, reused
	count   int     // requests fed since the last Seal
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
	return &IncrementalOpt{n: n, capc: m.Cap, hold: m.Hold, inc: matching.NewIncremental()}
}

// Rebase fixes the slot-row origin of the next open segment explicitly (a
// round; rows start at its epoch), so its requests may then be fed in any
// order as long as none arrives before base — the shape the reordering
// property tests exercise. Only valid while no segment is open; without it,
// Add anchors base to its first request and requires nondecreasing arrival
// rounds.
func (o *IncrementalOpt) Rebase(base int) {
	if o.count > 0 {
		panic("offline: Rebase with an open segment")
	}
	o.base, o.started = base/o.hold, true
}

// Add feeds one request — arrival round t, deadline window d, resource
// alternatives alts — and repairs the matching. It reports whether the request
// is servable by an offline schedule of everything seen since the last Seal
// (i.e. whether the optimum grew). Requests must arrive in nondecreasing t
// within a segment (unless Rebase fixed an earlier origin); t may jump
// backwards only across a Seal.
func (o *IncrementalOpt) Add(t, d int, alts []int) bool {
	eLo, eHi := t/o.hold, (t+d-1)/o.hold
	if !o.started {
		o.base, o.started = eLo, true
	}
	o.count++
	o.inc.EnsureRight((eHi - o.base + 1) * o.n * o.capc)
	o.adj = o.adj[:0]
	for _, a := range alts {
		for e := eLo; e <= eHi; e++ {
			for u := 0; u < o.capc; u++ {
				o.adj = append(o.adj, int32(((e-o.base)*o.n+a)*o.capc+u))
			}
		}
	}
	return o.inc.AddLeft(o.adj)
}

// AddRequest feeds one core.Request.
func (o *IncrementalOpt) AddRequest(r *core.Request) bool {
	return o.Add(r.Arrive, r.D, r.Alts)
}

// Opt returns the offline optimum of every request fed since the last Seal.
func (o *IncrementalOpt) Opt() int { return o.inc.Size() }

// Count returns the number of requests fed since the last Seal.
func (o *IncrementalOpt) Count() int { return o.count }

// Seal closes the open segment, returning its final optimum and resetting the
// tracker for the next segment. All buffers are kept, so a long-running
// consumer allocates nothing per segment at steady state.
func (o *IncrementalOpt) Seal() int {
	opt := o.inc.Size()
	o.inc.Rewind()
	o.count, o.started = 0, false
	return opt
}

// feed runs Optimum's pass on o, which must have no open segment. It is
// separate so TestIncrementalOptWork can read the matcher's work.
func (o *IncrementalOpt) feed(tr *core.Trace) int {
	cut := core.NewSegmenter(tr.Model)
	opt := 0
	for t := range tr.Arrivals {
		rs := tr.Arrivals[t]
		if len(rs) == 0 {
			continue
		}
		if _, ok := cut.Cut(t); ok {
			opt += o.Seal()
		}
		for i := range rs {
			r := &rs[i]
			o.AddRequest(r)
			cut.Add(r.Deadline())
		}
	}
	return opt + o.Seal()
}
