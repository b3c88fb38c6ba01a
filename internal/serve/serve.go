// Package serve turns the round engine into a live network-facing scheduler
// daemon: an HTTP server ingesting JSONL request records (the trace stream
// wire format) into a bounded arrival queue that feeds a core.Stepper round
// by round. The daemon runs any registry strategy, exposes live metrics —
// including a rolling empirical competitive ratio computed online by cutting
// admitted arrivals into independent time segments and matching each
// segment's requests incrementally on a background worker — and drains
// gracefully on request or signal. Because the daemon and the batch engine
// share the same Stepper, a workload streamed through the daemon under the
// virtual clock produces a schedule bit-identical to core.Run on the
// equivalent trace.
package serve

import (
	"fmt"
	"sync"
	"time"

	"reqsched/internal/core"
	"reqsched/internal/offline"
	"reqsched/internal/ratio"
	"reqsched/internal/stats"
	"reqsched/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// N is the number of resources; D the default deadline window applied to
	// records that omit one. Both must be >= 1.
	N, D int
	// MaxD caps the per-record deadline window the daemon admits (and sizes
	// the schedule lookahead and the latency histogram). 0 means D; values
	// below D are rejected, since default-window records would not fit.
	MaxD int
	// Strategy is the online strategy instance driving the engine. The daemon
	// serializes all engine access, so the instance need not be safe for
	// concurrent use. StrategyName is reported in metrics (defaults to
	// Strategy.Name()).
	Strategy     core.Strategy
	StrategyName string
	// Model is the service model the engine runs under (zero value: unit).
	// The strategy must support it — New returns the CheckModelSupport error
	// otherwise.
	Model core.ServiceModel
	// Virtual selects the deterministic clock: each record's T field is its
	// authoritative arrival round and the engine advances lazily as larger
	// rounds arrive, at most maxRoundJump rounds past its next round per
	// record. Without it the daemon runs on a wall clock: a ticker fires
	// every RoundDur and queued arrivals join the round of the next tick.
	// RoundDur == 0 disables the ticker (rounds advance only through Tick —
	// the deterministic way to test wall-clock semantics).
	Virtual  bool
	RoundDur time.Duration
	// QueueCap bounds the arrival queue; ingest answers 429 with Retry-After
	// once it is full. 0 means 4096.
	QueueCap int
	// KeepLog retains the full fulfillment log in the engine result (memory
	// grows with traffic; meant for equivalence tests, not production runs).
	KeepLog bool
}

// Server is the live scheduler daemon. Its HTTP surface is
//
//	POST /v1/requests  — JSONL records (optional header line), admitted or
//	                     rejected per line; 400 names the byte offset.
//	GET  /v1/metrics   — live counters, JSON or ?format=prometheus.
//	POST /v1/drain     — stop admitting, run out the deadline window, flush
//	                     the rolling ratio, answer with final metrics.
//
// All engine state is guarded by one mutex; only the segment-optimum worker
// runs outside it (it communicates through a channel and atomic counters).
type Server struct {
	cfg Config

	mu       sync.Mutex
	st       *core.Stepper
	hist     *stats.Histogram
	queue    []*core.Request // admitted arrivals waiting for their round
	batchT   int             // virtual clock: round the queue belongs to
	nextID   int
	seg      core.Segmenter // the open segment's clean-cut bookkeeping
	algMark  int            // Fulfilled at the last segment cut
	rej      rejectCounts
	draining bool
	finished bool
	final    *core.Result

	// rolling-ratio worker
	optCh  chan optJob
	wg     sync.WaitGroup
	ratMu  sync.Mutex
	opt    int // optimum over solved segments
	alg    int // fulfilled over the same segments
	solved int
	closed int

	stop chan struct{} // stops the wall-clock ticker
}

// optJob is one message to the rolling-ratio worker: a batch of admitted
// requests to feed the incremental matching, or a seal of the open segment
// carrying its ALG delta.
type optJob struct {
	batch *reqBatch // incremental feed; worker recycles it into the pool
	seal  bool      // seal the open segment after feeding batch
	alg   int       // seal: the closed segment's ALG delta
}

// reqBatch is a pooled slice of admitted requests in flight to the
// rolling-ratio worker. The requests themselves are immutable once flushed
// into the engine, so the worker reads them without locks.
type reqBatch struct {
	recs []*core.Request
}

var batchPool = sync.Pool{New: func() any { return new(reqBatch) }}

type rejectCounts struct {
	Malformed int `json:"malformed"`
	QueueFull int `json:"queue_full"`
	Expired   int `json:"expired"`
	Draining  int `json:"draining"`
}

// New validates cfg and returns a ready server. The wall-clock ticker (if
// configured) starts immediately; Close or Drain stops it.
func New(cfg Config) (*Server, error) {
	if cfg.N < 1 || cfg.D < 1 {
		return nil, fmt.Errorf("serve: invalid n=%d d=%d", cfg.N, cfg.D)
	}
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("serve: no strategy configured")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	cfg.Model = cfg.Model.Norm()
	if err := core.CheckModelSupport(cfg.Strategy, cfg.Model); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.MaxD == 0 {
		cfg.MaxD = cfg.D
	}
	if cfg.MaxD < cfg.D {
		return nil, fmt.Errorf("serve: max window %d below default window %d", cfg.MaxD, cfg.D)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 4096
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("serve: queue capacity %d below 1", cfg.QueueCap)
	}
	if cfg.StrategyName == "" {
		cfg.StrategyName = cfg.Strategy.Name()
	}
	s := &Server{
		cfg:   cfg,
		hist:  stats.NewHistogram(cfg.MaxD),
		seg:   core.NewSegmenter(cfg.Model),
		optCh: make(chan optJob, 256),
		stop:  make(chan struct{}),
	}
	s.st = core.NewStepperModel(cfg.Strategy, cfg.N, cfg.D, cfg.MaxD, cfg.Model)
	s.st.KeepLog = cfg.KeepLog
	s.st.Observe = func(f core.Fulfillment) { s.hist.Add(f.Round - f.Req.Arrive) }
	s.wg.Add(1)
	go s.optWorker()
	if !cfg.Virtual && cfg.RoundDur > 0 {
		go s.runTicker()
	}
	return s, nil
}

// optWorker maintains the rolling offline optimum: it feeds every admitted
// request into a maintained maximum matching — one augmenting-path search per
// request, all scratch reused across segments — so a seal folds the finished
// value in immediately instead of paying a whole-segment solve. It touches no
// engine state, so optimum maintenance never blocks ingest (beyond the
// bounded channel's backpressure). Admission sends the seal job before the
// first batch past a clean cut, because it must run the engine through the
// cut for the segment's ALG, so Add's own cut never fires here.
func (s *Server) optWorker() {
	defer s.wg.Done()
	inc := offline.NewIncrementalOptModel(s.cfg.N, s.cfg.Model)
	for job := range s.optCh {
		if job.batch != nil {
			for _, r := range job.batch.recs {
				inc.Add(r.Arrive, r.D, r.Alts)
			}
			clear(job.batch.recs) // a pooled batch must not keep requests reachable
			job.batch.recs = job.batch.recs[:0]
			batchPool.Put(job.batch)
		}
		if job.seal {
			s.foldSegment(inc.Seal(), job.alg)
		}
	}
}

// foldSegment adds one solved segment's optimum and ALG to the rolling totals.
func (s *Server) foldSegment(opt, alg int) {
	s.ratMu.Lock()
	s.opt += opt
	s.alg += alg
	s.solved++
	s.ratMu.Unlock()
}

func (s *Server) runTicker() {
	tick := time.NewTicker(s.cfg.RoundDur)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.Tick()
		}
	}
}

// admitVerdict classifies one ingest record.
type admitVerdict int

const (
	admitOK admitVerdict = iota
	admitDraining
	admitQueueFull
	admitOutOfOrder
	admitExpired
	admitWindow
	admitTooFar
)

// maxRoundJump bounds how far past the engine's next round a virtual-clock
// record may arrive. The engine steps every round it skips, so without a
// bound one record naming a huge round would hold the engine lock for as
// long as the client likes.
const maxRoundJump = 1 << 16

// admitLocked validates rec against the live engine state and, if admissible,
// queues it for its round. Under the virtual clock rec.T is the arrival
// round and a larger T first flushes the pending batch; under the wall clock
// the arrival round is assigned at the next tick and rec.T (when set) only
// feeds the expired-on-arrival check.
func (s *Server) admitLocked(rec trace.StreamRecord) admitVerdict {
	if s.draining || s.finished {
		s.rej.Draining++
		return admitDraining
	}
	if rec.D > s.cfg.MaxD {
		s.rej.Malformed++
		return admitWindow
	}
	if s.cfg.Virtual {
		// A round already simulated (or mid-batch round left behind) cannot
		// receive arrivals: the engine never rewinds.
		if rec.T < s.batchT || s.st.Round() > rec.T {
			s.rej.Expired++
			return admitOutOfOrder
		}
		if rec.T-s.st.Round() > maxRoundJump {
			s.rej.Malformed++
			return admitTooFar
		}
		if rec.T > s.batchT {
			s.flushLocked()
			s.batchT = rec.T
		}
	} else {
		// Wall clock: the record joins the next tick's round. A client-side
		// arrival stamp that already ran out its window is dead on arrival.
		if rec.T > 0 && rec.T+rec.D-1 < s.st.Round() {
			s.rej.Expired++
			return admitExpired
		}
		rec.T = s.st.Round()
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.rej.QueueFull++
		return admitQueueFull
	}
	a := &admitted{}
	a.Alts = append(a.alts[:0], rec.Alts...)
	r := &a.Request
	r.ID, r.Arrive, r.D, r.W = s.nextID, rec.T, rec.D, rec.W
	s.nextID++
	s.queue = append(s.queue, r)
	return admitOK
}

// admitted is an admitted request together with room for its alternatives.
// A record of at most two alternatives (the paper's model has two) keeps
// them in the array, so it costs one allocation in the same 80-byte size
// class as a Request and a separate copy of its Alts; a longer record's
// append spills to a separate slice.
type admitted struct {
	core.Request
	alts [2]int
}

// flushLocked admits the queued batch to the engine at round s.batchT:
// segment bookkeeping first (a batch past every buffered deadline seals the
// open segment), then the empty rounds up to the batch round, then the batch
// itself. The batch is also handed to the optimum worker, which has been
// matching the open segment's requests all along.
func (s *Server) flushLocked() {
	if len(s.queue) == 0 {
		return
	}
	t := s.batchT
	if hi, ok := s.seg.Cut(t); ok {
		// Clean cut: every request of the closing segment has deadline
		// <= hi < t, so running the engine through hi makes all of the
		// segment's services and expiries final before the snapshot.
		s.runToLocked(hi + 1)
		s.sealSegmentLocked()
	}
	b := batchPool.Get().(*reqBatch)
	b.recs = append(b.recs[:0], s.queue...)
	s.optCh <- optJob{batch: b}
	for _, r := range s.queue {
		s.seg.Add(r.Deadline())
	}
	s.runToLocked(t)
	s.st.Step(s.queue)
	clear(s.queue) // the slots would keep served and expired requests reachable
	s.queue = s.queue[:0]
}

// sealSegmentLocked tells the optimum worker to seal the segment just closed
// and starts the next one. The engine has completed every round the segment
// spans, so the fulfillment delta is exactly the segment's ALG.
func (s *Server) sealSegmentLocked() {
	res := s.st.Result()
	s.optCh <- optJob{seal: true, alg: res.Fulfilled - s.algMark}
	s.algMark = res.Fulfilled
	s.closed++
}

// runToLocked steps empty rounds until the engine's next round is t.
func (s *Server) runToLocked(t int) {
	for s.st.Round() < t {
		s.st.Step(nil)
	}
}

// Tick advances the wall clock by one round, admitting the queued batch. It
// is what the RoundDur ticker calls; tests call it directly.
func (s *Server) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Virtual || s.finished {
		return
	}
	t := s.st.Round()
	for _, r := range s.queue {
		r.Arrive = t // definitive arrival round is assigned at the tick
	}
	s.batchT = t
	if len(s.queue) > 0 {
		s.flushLocked()
	} else {
		s.st.Step(nil)
	}
}

// Drain stops admitting, runs the engine until no request is pending, closes
// the trailing segment, waits for the optimum worker and finalizes the
// result. It is idempotent; every call returns the final metrics.
func (s *Server) Drain() Metrics {
	s.mu.Lock()
	if s.finished {
		m := s.metricsLocked()
		s.mu.Unlock()
		return m
	}
	s.draining = true
	if !s.cfg.Virtual {
		for _, r := range s.queue {
			r.Arrive = s.st.Round()
		}
		s.batchT = s.st.Round()
	}
	s.flushLocked()
	for s.st.Pending() > 0 {
		s.st.Step(nil)
	}
	if _, ok := s.seg.Close(); ok {
		s.sealSegmentLocked()
	}
	close(s.optCh)
	s.mu.Unlock()

	s.wg.Wait() // all segments solved; rolling totals final
	close(s.stop)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.final = s.st.Finish()
	s.finished = true
	return s.metricsLocked()
}

// Close stops the ticker and the worker without draining — for servers that
// were never drained (e.g. a test tearing down). Safe after Drain.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		close(s.optCh)
		s.mu.Unlock()
		s.wg.Wait()
		close(s.stop)
		return
	}
	s.mu.Unlock()
}

// Metrics is a point-in-time snapshot of the daemon's counters.
type Metrics struct {
	Strategy string `json:"strategy"`
	N        int    `json:"n"`
	D        int    `json:"d"`
	// Model is the service model string ("hold=H,cap=C"); omitted under the
	// unit model, keeping unit-daemon metrics byte-identical to before.
	Model   string `json:"model,omitempty"`
	Round   int    `json:"round"`
	Virtual bool   `json:"virtual_clock"`

	Requests  int `json:"requests"`
	Fulfilled int `json:"fulfilled"`
	Expired   int `json:"expired"`
	Pending   int `json:"pending"`

	QueueDepth int          `json:"queue_depth"`
	QueueCap   int          `json:"queue_cap"`
	Rejected   rejectCounts `json:"rejected"`
	Resources  []int        `json:"per_resource"`
	// Occupancy gauges how many capacity units of each resource are busy at
	// the engine's current round — holds still running plus planned services.
	// Only reported under a non-unit model (always zero between rounds at
	// hold=1, cap=1).
	Occupancy []int        `json:"occupancy,omitempty"`
	Latency   LatencyStats `json:"latency"`
	Rolling   RollingRatio `json:"rolling_ratio"`
	Draining  bool         `json:"draining"`
	Finished  bool         `json:"finished"`
}

// LatencyStats summarizes the service-latency histogram (rounds waited
// between arrival and service). Overflow counts samples clamped into the last
// bucket — with the histogram sized to the maximum window it stays 0, so a
// non-zero value flags a sizing bug rather than load. Exact mirrors
// Histogram.Exact: when false, Mean and the quantiles value the clamped tails
// at their sentinels (-1 / bucket count) instead of understating them.
type LatencyStats struct {
	Samples  int     `json:"samples"`
	Mean     float64 `json:"mean"`
	P50      int     `json:"p50"`
	P90      int     `json:"p90"`
	P99      int     `json:"p99"`
	Overflow int     `json:"overflow"`
	Exact    bool    `json:"exact"`
}

// RollingRatio is the online competitive-ratio estimate: OPT and ALG summed
// over the time segments whose offline optimum the background worker has
// solved so far. Closed counts segments handed to the worker; Solved the ones
// already folded in — the ratio is exact over exactly the solved segments.
// Ratio uses the shared FormatRatio convention ("inf" when starved, "1.0000"
// with no data) because JSON cannot encode infinities as numbers.
type RollingRatio struct {
	Opt    int    `json:"opt"`
	Alg    int    `json:"alg"`
	Closed int    `json:"segments_closed"`
	Solved int    `json:"segments_solved"`
	Ratio  string `json:"ratio"`
}

// Metrics returns a live snapshot.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metricsLocked()
}

func (s *Server) metricsLocked() Metrics {
	res := s.st.Result()
	m := Metrics{
		Strategy:   s.cfg.StrategyName,
		N:          s.cfg.N,
		D:          s.cfg.D,
		Round:      s.st.Round(),
		Virtual:    s.cfg.Virtual,
		Requests:   res.Requests + len(s.queue), // admitted = in the engine or queued for their round
		Fulfilled:  res.Fulfilled,
		Expired:    res.Expired,
		Pending:    s.st.Pending(),
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueCap,
		Rejected:   s.rej,
		Resources:  append([]int(nil), res.PerResource...),
		Draining:   s.draining,
		Finished:   s.finished,
	}
	if sm := s.cfg.Model; !sm.IsUnit() {
		m.Model = sm.String()
		m.Occupancy = make([]int, s.cfg.N)
		for i := range m.Occupancy {
			m.Occupancy[i] = s.st.Occupancy(i)
		}
	}
	if n := s.hist.Total(); n > 0 {
		m.Latency = LatencyStats{
			Samples:  n,
			Mean:     s.hist.Mean(),
			P50:      s.hist.Quantile(0.50),
			P90:      s.hist.Quantile(0.90),
			P99:      s.hist.Quantile(0.99),
			Overflow: s.hist.Overflow(),
			Exact:    s.hist.Exact(),
		}
	}
	s.ratMu.Lock()
	m.Rolling = RollingRatio{
		Opt:    s.opt,
		Alg:    s.alg,
		Closed: s.closed,
		Solved: s.solved,
		Ratio:  ratio.FormatRatio(ratio.Measurement{OPT: s.opt, ALG: s.alg}.Ratio(), 4),
	}
	s.ratMu.Unlock()
	return m
}
