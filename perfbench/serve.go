package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/registry"
	"reqsched/internal/serve"
	"reqsched/internal/trace"
)

// serveStrategy is serve's default strategy, resolved through the registry
// like the daemon's -strategy flag.
const serveStrategy = "A_balance"

// serveWorkload is one traffic shape POSTed to an in-process serve.Server
// from a single client goroutine, with no socket.
type serveWorkload struct {
	name    string
	seed    int64  // run seed; chunk k generates from chunkSeed(seed, k)
	source  string // registry workload generating the records
	params  registry.Params
	virtual bool // virtual clock: records carry t; otherwise Tick after each round's POST
	perBody int  // records per POST body under the virtual clock
}

// burstyServe: 4 rounds at 50 arrivals/round, then 8 silent rounds, n=16,
// d=4, virtual clock, POSTed in 1024-record bodies.
func burstyServe(seed int64, rounds int) serveWorkload {
	return serveWorkload{
		name:   "bursty_serve",
		seed:   seed,
		source: "bursty",
		params: registry.Params{
			"n": registry.IntVal(16), "d": registry.IntVal(4),
			"rounds": registry.IntVal(int64(rounds)), "rate": registry.FloatVal(0),
			"on": registry.IntVal(4), "off": registry.IntVal(8), "burst": registry.FloatVal(50),
		},
		virtual: true,
		perBody: 1024,
	}
}

// steadyServe: uniform Poisson arrivals at 0.9·n per round, n=16, d=4, wall
// clock with RoundDur 0; one POST of the round's records (without t), then
// one Tick, per round.
func steadyServe(seed int64, rounds int) serveWorkload {
	return serveWorkload{
		name:   "steady_serve",
		seed:   seed,
		source: "uniform",
		params: registry.Params{
			"n": registry.IntVal(16), "d": registry.IntVal(4),
			"rounds": registry.IntVal(int64(rounds)), "rate": registry.FloatVal(0.9 * 16),
		},
	}
}

// chunk returns the workload of chunk k.
func (w serveWorkload) chunk(k int) serveWorkload {
	w.params = w.params.Clone()
	w.params["seed"] = registry.IntVal(chunkSeed(w.seed, k))
	return w
}

// generate produces the workload's trace. Generation is deterministic, so
// the correctness gate regenerates rather than keeping it alive.
func (w serveWorkload) generate() (*core.Trace, error) {
	return registry.GenerateWorkload(w.source, w.params)
}

// encode renders the trace as JSONL POST bodies. Under the virtual clock the
// records carry their arrival round and are cut into fixed-size bodies;
// under the wall clock there is one body per round (nil for an empty round)
// and the tick assigns the round.
func (w serveWorkload) encode(tr *core.Trace) [][]byte {
	var bodies [][]byte
	var body []byte
	n := 0
	for _, row := range tr.Arrivals {
		for i := range row {
			body = appendRecord(body, row[i].Arrive, w.virtual, row[i].Alts)
			n++
			if w.virtual && n == w.perBody {
				bodies = append(bodies, body)
				body, n = nil, 0
			}
		}
		if !w.virtual {
			bodies = append(bodies, body)
			body, n = nil, 0
		}
	}
	if w.virtual && n > 0 {
		bodies = append(bodies, body)
	}
	return bodies
}

// appendRecord appends one JSONL record in the trace stream wire format.
func appendRecord(b []byte, t int, withT bool, alts []int) []byte {
	b = append(b, '{')
	if withT {
		b = append(b, `"t":`...)
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, ',')
	}
	b = append(b, `"alts":[`...)
	for i, a := range alts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	return append(b, "]}\n"...)
}

// serveSetup is one pass's program-side state, built by setup.
type serveSetup struct {
	srv     *serve.Server
	bodies  [][]byte
	records int
	gen     time.Duration // generator call
	build   time.Duration // registry resolution plus serve.New
	total   time.Duration // the whole set-up
}

// setup generates and encodes the workload, resolves the strategy through
// the registry and builds the server — the program-side set-up setup_s
// times. A non-nil rec wraps the strategy in the timing decorator.
func (w serveWorkload) setup(rec *recorder) (*serveSetup, error) {
	t0 := time.Now()
	tr, err := w.generate()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	bodies := w.encode(tr)
	t2 := time.Now()
	strat, err := registry.NewStrategySpec(serveStrategy)
	if err != nil {
		return nil, err
	}
	sess := &serveSetup{bodies: bodies, records: tr.NumRequests()}
	if rec != nil {
		strat = wrapStrategy(strat, rec, nil)
	}
	srv, err := serve.New(serve.Config{
		N: tr.N, D: tr.D, Strategy: strat, StrategyName: serveStrategy, Virtual: w.virtual,
	})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	sess.srv = srv
	sess.gen, sess.build, sess.total = t1.Sub(t0), t3.Sub(t2), t3.Sub(t0)
	return sess, nil
}

// replyWriter is a reusable http.ResponseWriter for in-process calls.
type replyWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *replyWriter) Header() http.Header { return w.h }
func (w *replyWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *replyWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}
func (w *replyWriter) reset() {
	w.code = 0
	w.body.Reset()
}

// serveTraced is what a traced serve pass keeps beyond the pass result.
type serveTraced struct {
	records    int
	gen, build time.Duration
	backlogMax int
	rejected   int
	wall       time.Duration // ingest + drain
	topLevel   int64         // ns covered by top-level spans
}

// pass runs one pass: set-up, client preparation (untimed), every POST (and
// Tick) then Drain timed, the live heap read at the end of ingest outside the
// timed span. gate additionally checks the outputs against direct
// recomputation. A non-nil rec records spans around every call.
func (w serveWorkload) pass(gate bool, rec *recorder, out *outcome) (passResult, *serveTraced, error) {
	var res passResult
	runtime.GC()
	base := liveHeap()
	sess, err := w.setup(rec)
	if err != nil {
		return res, nil, err
	}
	defer sess.srv.Close()
	res.setup = sess.total.Seconds()
	res.offered = sess.records

	reqs := make([]*http.Request, len(sess.bodies))
	for i, b := range sess.bodies {
		if b != nil {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(b))
		}
	}
	var tr *serveTraced
	if rec != nil {
		tr = &serveTraced{records: sess.records, gen: sess.gen, build: sess.build}
	}
	sess.bodies = nil // the requests hold the bodies until they are sent
	rw := &replyWriter{h: make(http.Header)}
	srv := sess.srv
	posts, bad := 0, 0
	allocs := newAllocSample()

	a0 := allocs.read()
	c0 := cpuTime()
	t0 := time.Now()
	for i, rq := range reqs {
		if rq != nil {
			if rec != nil {
				rec.batch = int32(i)
				id := rec.begin("serve.post")
				srv.ServeHTTP(rw, rq)
				rec.end(id)
				id = rec.begin("bench.probe")
				if r := srv.Metrics().Rolling; r.Closed-r.Solved > tr.backlogMax {
					tr.backlogMax = r.Closed - r.Solved
				}
				rec.end(id)
			} else {
				srv.ServeHTTP(rw, rq)
			}
			posts++
			if rw.code != http.StatusOK {
				bad++
				out.problem("POST %d: status %d: %s", i, rw.code, rw.body.String())
			}
			rw.reset()
			reqs[i] = nil
		}
		if !w.virtual {
			if rec != nil {
				rec.batch = int32(i)
				id := rec.begin("serve.tick")
				srv.Tick()
				rec.end(id)
			} else {
				srv.Tick()
			}
		}
	}
	ingest := time.Since(t0)
	cpu := cpuTime() - c0
	if rec == nil {
		res.heapBytes = settledHeap(srv) - base
	}
	c1 := cpuTime()
	t1 := time.Now()
	var m serve.Metrics
	if rec != nil {
		rec.batch = int32(len(reqs))
		id := rec.begin("serve.drain")
		m = srv.Drain()
		rec.end(id)
	} else {
		m = srv.Drain()
	}
	drain := time.Since(t1)
	cpu += cpuTime() - c1
	res.cpu = cpu.Seconds()
	res.allocs = float64(allocs.read()-a0) / float64(sess.records)
	res.timed = (ingest + drain).Seconds()
	if tr != nil {
		tr.wall = ingest + drain
		tr.topLevel = topLevel(rec.spans)
	}

	rejected := m.Rejected.Malformed + m.Rejected.QueueFull + m.Rejected.Expired + m.Rejected.Draining
	if tr != nil {
		tr.rejected = rejected
	}
	out.count(posts, bad)
	out.count(sess.records, rejected)
	if rejected > 0 {
		out.problem("%d records rejected: %+v", rejected, m.Rejected)
	}
	out.check(m.Requests == sess.records, "admitted %d of %d records", m.Requests, sess.records)
	res.q = quality{
		Offered: sess.records, Fulfilled: m.Fulfilled,
		Opt: m.Rolling.Opt, Alg: m.Rolling.Alg, WaitMean: m.Latency.Mean,
	}
	out.check(m.Rolling.Closed == m.Rolling.Solved && m.Rolling.Alg == m.Fulfilled,
		"rolling ratio after drain: %+v, fulfilled %d", m.Rolling, m.Fulfilled)
	if gate {
		if err := w.gate(m, out); err != nil {
			return res, nil, err
		}
	}
	return res, tr, nil
}

// gate checks a drained server against direct recomputation on the admitted
// trace: Fulfilled and the mean wait equal core.Run under a fresh strategy,
// and the rolling OPT equals offline.Optimum. Under the wall clock the tick
// after each round's POST makes the admitted trace the generated one.
func (w serveWorkload) gate(m serve.Metrics, out *outcome) error {
	tr, err := w.generate()
	if err != nil {
		return err
	}
	s, err := registry.NewStrategySpec(serveStrategy)
	if err != nil {
		return err
	}
	res, err := core.RunChecked(s, tr)
	if err != nil {
		return err
	}
	out.check(res.Fulfilled == m.Fulfilled, "fulfilled %d, core.Run %d", m.Fulfilled, res.Fulfilled)
	out.check(res.MeanLatency() == m.Latency.Mean, "mean wait %v, core.Run %v", m.Latency.Mean, res.MeanLatency())
	opt := offline.Optimum(tr)
	out.check(opt == m.Rolling.Opt, "rolling OPT %d, offline.Optimum %d", m.Rolling.Opt, opt)
	return nil
}

// settledHeap returns the live heap once the rolling-OPT worker has caught
// up: it forces GCs until every closed segment is solved and two reads
// agree, so the reading does not depend on how far the worker lagged.
func settledHeap(srv *serve.Server) int64 {
	prev := int64(-1)
	for i := 0; i < 100; i++ {
		runtime.GC()
		h := liveHeap()
		if r := srv.Metrics().Rolling; h == prev && r.Closed == r.Solved {
			return h
		}
		prev = h
		time.Sleep(2 * time.Millisecond)
	}
	return prev
}

// serveFold accumulates the traced passes, so a pass's spans can be
// dropped once folded.
type serveFold struct {
	lt      layerTimes
	passes  []*serveTraced
	records int
	rates   []float64
}

func (f *serveFold) add(rec *recorder, tp *serveTraced) {
	f.lt.add(rec.spans)
	rec.spans = nil
	f.passes = append(f.passes, tp)
	f.records += tp.records
	f.rates = append(f.rates, float64(tp.records)/tp.wall.Seconds())
}

// serveLayers fills the per-layer metrics from the folded traced passes and
// from replaying each layer's public functions on this workload's records.
func (w serveWorkload) serveLayers(f *serveFold, untracedRate float64, lm layerMetrics) error {
	tr, err := w.generate()
	if err != nil {
		return err
	}
	lt := f.lt
	records := float64(f.records)
	passes := float64(len(f.passes))
	backlog, rejected := 0, 0
	var top, wall int64
	var gen, build time.Duration
	for _, t := range f.passes {
		backlog = max(backlog, t.backlogMax)
		rejected += t.rejected
		top += t.topLevel
		wall += int64(t.wall)
		gen += t.gen
		build += t.build
	}
	replayed := float64(tr.NumRequests())

	// internal/trace: decode replay over the exact bodies.
	ns, allocs := decodeReplay(w.encode(tr), tr.N, tr.D)
	lm.set("trace.decode_ns_per_rec", ns/replayed)
	lm.set("trace.decode_allocs_per_rec", allocs/replayed)
	lm.set("trace.segments", float64(reqsched.TraceSegmentCount(tr)))

	// internal/serve: spans around every call.
	post, tick, drain := lt.get("serve.post"), lt.get("serve.tick"), lt.get("serve.drain")
	lm.set("serve.post_us_p50", lt.quantileNs("serve.post", 0.5)/1e3)
	lm.set("serve.post_us_p99", lt.quantileNs("serve.post", 0.99)/1e3)
	lm.set("serve.tick_us_p50", lt.quantileNs("serve.tick", 0.5)/1e3)
	lm.set("serve.tick_us_p99", lt.quantileNs("serve.tick", 0.99)/1e3)
	lm.set("serve.ingest_self_ns_per_rec", float64(post.self+tick.self)/records)
	lm.set("serve.drain_ms", float64(drain.total)/passes/1e6)
	lm.set("serve.opt_backlog_max", float64(backlog))
	lm.set("serve.rejected", float64(rejected))

	// internal/strategies: the decorator's in-situ Round spans.
	round := lt.get("strategy.round")
	lm.set("strategy.round_ns_per_req", float64(round.total)/records)
	lm.set("strategy.round_us_p99", lt.quantileNs("strategy.round", 0.99)/1e3)
	lm.set("strategy."+serveStrategy+".ns_per_req", float64(round.total)/records)

	// internal/core: replay the server's round sequence through a Stepper.
	cr, err := stepperReplay(tr)
	if err != nil {
		return err
	}
	lm.set("core.step_self_ns_per_round", cr.selfNs/float64(cr.rounds))
	lm.set("core.rounds", float64(cr.rounds))
	lm.set("core.allocs_per_round", cr.coreAllocs/float64(cr.rounds))
	lm.set("strategy.allocs_per_round", cr.roundAllocs/float64(cr.rounds))
	lm.set("strategy."+serveStrategy+".allocs_per_req", cr.roundAllocs/replayed)

	// internal/offline: replay the rolling OPT and the batch optimum.
	or := incReplay(tr)
	lm.set("offline.inc_ns_per_req", or.addNs/replayed)
	lm.set("offline.inc_seal_us_p99", or.sealP99Ns/1e3)
	lm.set("offline.inc_heap_mb", float64(or.heapBytes)/1e6)
	t0 := time.Now()
	offline.Optimum(tr)
	lm.set("offline.hk_ns_per_req", float64(time.Since(t0))/replayed)
	lm.set("offline.opt_share", (or.addNs+or.sealNs)/replayed/(float64(wall)/records))

	// internal/workload, internal/registry: the set-up calls.
	lm.set("workload.gen_ns_per_req", float64(gen)/records)
	lm.set("registry.build_us", float64(build)/passes/1e3)

	lm.set("bench.unattributed_frac", 1-float64(top)/float64(wall))
	lm.set("bench.trace_overhead_frac", untracedRate/quantile(f.rates, 0.5)-1)
	return nil
}

// decodeReplay runs trace.ScanJSONLine + trace.DecodeStreamRecordInto over
// the bodies the way the ingest handler does, three times, and returns the
// fastest time and the allocations of the last replay.
func decodeReplay(bodies [][]byte, n, d int) (ns, allocs float64) {
	as := newAllocSample()
	var rec trace.StreamRecord
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		a0 := as.read()
		t0 := time.Now()
		for _, b := range bodies {
			if b == nil {
				continue
			}
			br := bufio.NewReader(bytes.NewReader(b))
			var off int64
			for idx := 0; ; idx++ {
				line, next, err := trace.ScanJSONLine(br, off)
				if err == io.EOF {
					break
				}
				if err != nil {
					panic(fmt.Sprintf("decode replay: %v", err))
				}
				off = next
				if err := trace.DecodeStreamRecordInto(&rec, line, n, d, idx); err != nil {
					panic(fmt.Sprintf("decode replay: %v", err))
				}
			}
		}
		best = min(best, time.Since(t0))
		allocs = float64(as.read() - a0)
	}
	return float64(best), allocs
}

// coreReplay is the outcome of replaying a round sequence through a Stepper.
type coreReplay struct {
	rounds      int
	selfNs      float64 // Step time minus Round time
	coreAllocs  float64 // allocations outside Round
	roundAllocs float64 // allocations inside Round
}

// stepperReplay drives core.NewStepper over tr's rounds the way the server
// does (KeepLog off, step until nothing is pending): once with spans for
// time, once counting allocations around every Round.
func stepperReplay(tr *core.Trace) (coreReplay, error) {
	var cr coreReplay
	for _, countAllocs := range []bool{false, true} {
		s, err := registry.NewStrategySpec(serveStrategy)
		if err != nil {
			return cr, err
		}
		rec := newRecorder(time.Now())
		as := newAllocSample()
		ts := wrapStrategy(s, rec, nil)
		if countAllocs {
			ts = wrapStrategy(s, nil, as)
		}
		st := core.NewStepper(ts, tr.N, tr.D, tr.MaxD())
		st.KeepLog = false
		reqs := tr.Requests()
		var arrivals []*core.Request
		var stepNs int64
		a0 := as.read()
		for t, next := 0, 0; next < len(reqs) || st.Pending() > 0; t++ {
			arrivals = arrivals[:0]
			for next < len(reqs) && reqs[next].Arrive == t {
				arrivals = append(arrivals, reqs[next])
				next++
			}
			t0 := time.Now()
			st.Step(arrivals)
			stepNs += int64(time.Since(t0))
		}
		total := float64(as.read() - a0)
		st.Finish()
		if countAllocs {
			cr.roundAllocs = float64(ts.roundAllocs)
			cr.coreAllocs = total - cr.roundAllocs
		} else {
			cr.rounds = ts.rounds
			lt := layerTimes{}
			lt.add(rec.spans)
			cr.selfNs = float64(stepNs - lt.get("strategy.round").total)
		}
	}
	return cr, nil
}

// incResult is the outcome of replaying the rolling OPT.
type incResult struct {
	addNs, sealNs float64
	sealP99Ns     float64
	heapBytes     int64
}

// incReplay feeds the admitted records through offline.IncrementalOpt in
// arrival order, sealing at every clean cut exactly as the server's worker
// does, and reads the matcher's heap after a GC just before the final seal.
func incReplay(tr *core.Trace) incResult {
	var r incResult
	runtime.GC()
	base := liveHeap()
	inc := offline.NewIncrementalOpt(tr.N)
	var seals []float64
	maxDL := -1
	start := time.Now()
	for _, q := range tr.Requests() {
		if inc.Count() > 0 && q.Arrive > maxDL {
			t0 := time.Now()
			inc.Seal()
			seals = append(seals, float64(time.Since(t0)))
		}
		inc.Add(q.Arrive, q.D, q.Alts)
		maxDL = max(maxDL, q.Deadline())
	}
	loop := float64(time.Since(start))
	runtime.GC()
	r.heapBytes = liveHeap() - base
	t0 := time.Now()
	inc.Seal()
	seals = append(seals, float64(time.Since(t0)))
	for _, s := range seals {
		r.sealNs += s
	}
	r.addNs = loop - (r.sealNs - seals[len(seals)-1])
	r.sealP99Ns = quantile(seals, 0.99)
	return r
}
