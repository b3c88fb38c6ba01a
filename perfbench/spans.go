package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"reqsched/internal/core"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the recorder's epoch; parent indexes the recorder's own spans (-1 at
// top level); batch is the POST, round or cell the call belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	batch      int32
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps the spans of one goroutine in memory. Nesting follows the
// call stack: a span begun while another is open becomes its child.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32
	batch int32
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: r.now(), parent: parent, batch: r.batch})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	r.spans[id].end = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// layerTimes folds a set of spans into per-name totals: call count, total
// and self time (a span's duration minus the time its children cover), and
// every duration for percentiles.
type layerTimes map[string]*layerTime

// maxDurations bounds the durations kept per span name for percentiles, so
// a long traced run does not grow the heap the GC paces against.
const maxDurations = 100_000

type layerTime struct {
	count     int
	total     int64
	self      int64
	durations []int64
}

func (lt layerTimes) get(name string) *layerTime {
	t := lt[name]
	if t == nil {
		t = &layerTime{}
		lt[name] = t
	}
	return t
}

// add folds one recorder's spans into lt.
func (lt layerTimes) add(spans []span) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	for i, s := range spans {
		t := lt.get(s.name)
		t.count++
		t.total += s.dur()
		t.self += s.dur() - child[i]
		if len(t.durations) < maxDurations {
			t.durations = append(t.durations, s.dur())
		}
	}
}

// topLevel sums the durations of the spans without a parent.
func topLevel(spans []span) int64 {
	var sum int64
	for _, s := range spans {
		if s.parent < 0 {
			sum += s.dur()
		}
	}
	return sum
}

// quantileNs returns the q-quantile of the span durations of name, in ns.
func (lt layerTimes) quantileNs(name string, q float64) float64 {
	t := lt[name]
	if t == nil || len(t.durations) == 0 {
		return 0
	}
	d := make([]float64, len(t.durations))
	for i, v := range t.durations {
		d[i] = float64(v)
	}
	return quantile(d, q)
}

// writeSpans writes one JSON line per span to dir/name, once, at exit.
func writeSpans(dir, name string, recs []*recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for g, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, `{"goroutine":%d,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"batch":%d}`+"\n",
				g, i, s.name, s.start, s.end, s.parent, s.batch)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTime returns the process's user plus system CPU time. Time the
// hypervisor steals from the vCPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSample reads the process-wide count of heap allocations.
type allocSample struct{ s []metrics.Sample }

func newAllocSample() *allocSample {
	return &allocSample{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocSample) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// timedStrategy is a core.Strategy decorator that records a span around
// every Round and, when allocs is set, counts the heap allocations made
// inside Round. It forwards the optional engine interfaces, so comm
// accounting and service-model gating see the wrapped strategy.
type timedStrategy struct {
	inner       core.Strategy
	rec         *recorder
	allocs      *allocSample
	roundAllocs uint64
	rounds      int
}

func wrapStrategy(s core.Strategy, rec *recorder, allocs *allocSample) *timedStrategy {
	return &timedStrategy{inner: s, rec: rec, allocs: allocs}
}

func (t *timedStrategy) Name() string   { return t.inner.Name() }
func (t *timedStrategy) Begin(n, d int) { t.inner.Begin(n, d) }

func (t *timedStrategy) Round(ctx *core.RoundContext) {
	t.rounds++
	var a0 uint64
	if t.allocs != nil {
		a0 = t.allocs.read()
	}
	var id int32
	if t.rec != nil {
		id = t.rec.begin("strategy.round")
	}
	t.inner.Round(ctx)
	if t.rec != nil {
		t.rec.end(id)
	}
	if t.allocs != nil {
		t.roundAllocs += t.allocs.read() - a0
	}
}

// CommTotals forwards core.CommAccountant; a strategy without comm
// accounting reports zeros, which is what the engine records for it anyway.
func (t *timedStrategy) CommTotals() (rounds, messages int) {
	if ca, ok := t.inner.(core.CommAccountant); ok {
		return ca.CommTotals()
	}
	return 0, 0
}

// SupportsModel forwards core.ModelSupporter with the engine's own gate, so
// the wrapper accepts exactly the models the wrapped strategy accepts.
func (t *timedStrategy) SupportsModel(m core.ServiceModel) error {
	return core.CheckModelSupport(t.inner, m)
}

// quantile returns the q-quantile of xs (linear interpolation between order
// statistics, as statistics.quantiles' inclusive method); xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}
