// Package reqsched is a faithful, executable reproduction of
//
//	Berenbrink, Riedel, Scheideler:
//	"Simple Competitive Request Scheduling Strategies", SPAA 1999.
//
// The model: n resources work in synchronized rounds, one request served per
// resource per round. Each request names two alternative resources and must
// be served within d rounds of its arrival. An adversary injects requests;
// the goal is to maximize the number of requests served before their
// deadlines, measured by the competitive ratio against the offline optimum
// (a maximum matching between requests and time slots).
//
// The package exposes:
//
//   - the round-synchronous simulation engine (Run, Builder, Trace, Window);
//   - the paper's five global strategies (NewAFix, NewACurrent,
//     NewAFixBalance, NewAEager, NewABalance), the EDF reference strategies,
//     and two baselines;
//   - the two local (distributed, message-passing) strategies NewALocalFix
//     and NewALocalEager with communication-round accounting;
//   - the offline optimum (Optimum, OptimumSchedule);
//   - every adversarial lower-bound construction from the paper's proofs
//     (AdversaryFix .. AdversaryUniversal) and the measurement harness that
//     regenerates Table 1 (MeasureChecked, MeasureConstruction);
//   - synthetic workload generators (Uniform, Zipf, Bursty, VideoServer, ...)
//     and JSON trace serialization.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every bound.
package reqsched

import (
	"io"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/local"
	"reqsched/internal/offline"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/render"
	"reqsched/internal/strategies"
	"reqsched/internal/trace"
	"reqsched/internal/workload"
)

// Core model types, re-exported.
type (
	// Request is one two-choice request with a deadline window.
	Request = core.Request
	// Trace is a complete request sequence.
	Trace = core.Trace
	// Builder incrementally constructs traces.
	Builder = core.Builder
	// Strategy is an online scheduling strategy driven by Run.
	Strategy = core.Strategy
	// RoundContext is what a Strategy sees each round.
	RoundContext = core.RoundContext
	// Window is the sliding schedule a Strategy mutates.
	Window = core.Window
	// Result aggregates one simulation run.
	Result = core.Result
	// Fulfillment is one served request in a Result's log.
	Fulfillment = core.Fulfillment
	// Construction is an adversarial lower-bound instance.
	Construction = adversary.Construction
	// Measurement is one empirical competitive-ratio data point.
	Measurement = ratio.Measurement
	// WorkloadConfig parameterizes the synthetic generators.
	WorkloadConfig = workload.Config
	// TraceStats summarizes a trace.
	TraceStats = trace.Stats
)

// NewBuilder returns a trace builder for n resources and default deadline
// window d.
func NewBuilder(n, d int) *Builder { return core.NewBuilder(n, d) }

// Run simulates strategy s over trace tr. The trace must be valid; Run
// panics otherwise (a programming error in a generator). Tools replaying
// untrusted serialized traces should use RunChecked.
func Run(s Strategy, tr *Trace) *Result { return core.Run(s, tr) }

// RunChecked is Run for untrusted traces: it returns an error naming the
// first offending request instead of panicking.
func RunChecked(s Strategy, tr *Trace) (*Result, error) { return core.RunChecked(s, tr) }

// Series is a per-round statistics trace; RoundStats one row of it.
type (
	Series     = core.Series
	RoundStats = core.RoundStats
)

// RunWithSeries runs like Run and also records per-round statistics
// (arrivals, service, expiry, backlog, idle resources).
func RunWithSeries(s Strategy, tr *Trace) (*Result, *Series) {
	return core.RunWithSeries(s, tr)
}

// AugmentingOrders diffs a schedule against one offline optimum and returns
// the histogram of augmenting-path orders (number of requests per path) —
// the analysis device of the paper's upper-bound proofs. The histogram total
// equals OPT minus the schedule's size.
func AugmentingOrders(tr *Trace, log []Fulfillment) map[int]int {
	return offline.AugmentingOrders(tr, log)
}

// ValidateLog checks that a fulfillment log is a feasible schedule for tr.
func ValidateLog(tr *Trace, log []Fulfillment) error { return core.ValidateLog(tr, log) }

// Optimum returns the number of requests an optimal offline algorithm serves,
// computed by maintaining one matching over the growing request/slot graph —
// a single augmenting-path search per request, sealed at every clean segment
// cut. It is the solver the serve daemon's rolling ratio runs on.
func Optimum(tr *Trace) int { return offline.Optimum(tr) }

// Objective selects the offline optimum Solve computes.
type Objective = offline.Objective

// The objectives Solve computes: the maximum number of requests served
// (Optimum), the maximum total request weight served (the weighted
// extension's optimum; equals Optimum when unweighted), and the minimum total
// latency among maximum-cardinality schedules (the latency baseline for
// throughput-optimal scheduling).
const (
	Cardinality = offline.Cardinality
	Profit      = offline.Profit
	MinLatency  = offline.MinLatency
)

// Solve returns the offline optimum of tr under obj; it is the one entry
// point for the weighted objectives. Cardinality is Optimum(tr). Profit and
// MinLatency decompose the trace into independent segments (clean time
// cuts, with a union-find connected-components fallback) and solve each on
// a worker pool (workers <= 0: GOMAXPROCS), so peak memory is proportional
// to the largest segment rather than the horizon. log is set only for
// MinLatency: a minimum-latency schedule of maximum cardinality, in
// request-ID order.
func Solve(tr *Trace, obj Objective, workers int) (value int, log []Fulfillment) {
	return offline.Solve(tr, obj, workers)
}

// TraceSegmentCount returns how many independent pieces Solve's weighted
// objectives decompose tr into (time segments, or slot-graph components when
// the trace has no clean time cut).
func TraceSegmentCount(tr *Trace) int { return len(offline.Segments(tr)) }

// OptimumStream returns the offline optimum of a JSONL trace stream and the
// number of independent segments it falls into, read one record at a time
// through the incremental pass sealed at clean cuts — the bounded-memory
// evaluation path for traces too large to materialize.
func OptimumStream(r io.Reader) (opt, nsegs int, err error) {
	return offline.OptimumStream(r)
}

// OptimumSchedule returns one optimal offline schedule.
func OptimumSchedule(tr *Trace) []Fulfillment { return offline.OptimumSchedule(tr) }

// EarliestDeadlineSchedule serves tr greedily by earliest deadline on every
// resource and returns the number of requests fulfilled — optimal for
// single-choice traces (Observation 3.1).
func EarliestDeadlineSchedule(tr *Trace) int { return offline.EarliestDeadlineSchedule(tr) }

// AdaptiveSource generates arrivals round by round while observing which
// requests the online algorithm has served — the paper's adaptive adversary
// model (Theorem 2.6).
type AdaptiveSource = core.AdaptiveSource

// MeasureAdaptiveStream runs s against an adaptive source and computes its
// competitive ratio incrementally: generated requests feed one incrementally
// maintained offline matching, sealed at every clean segment cut, while the
// run is in progress, so the full trace is never materialized. It is the one
// adaptive measurement path (MeasureConstruction runs it for adaptive
// constructions). Returns the measurement and the number of segments the run
// decomposed into.
func MeasureAdaptiveStream(s Strategy, src AdaptiveSource) (Measurement, int) {
	return ratio.RunAdaptiveStream(s, src)
}

// Global strategies (Table 1 rows).

// NewAFix returns A_fix: schedule a maximum number of new arrivals each
// round, never reschedule. Competitive ratio exactly 2 - 1/d.
func NewAFix() Strategy { return strategies.NewFix() }

// NewACurrent returns A_current: maximum matching on the current round's
// slots only. Ratio between e/(e-1) and 2 - 1/d.
func NewACurrent() Strategy { return strategies.NewCurrent() }

// NewAFixBalance returns A_fix_balance: like A_fix but filling the earliest
// rounds first (maximizing the paper's balance function F).
func NewAFixBalance() Strategy { return strategies.NewFixBalance() }

// NewAEager returns A_eager: recompute a maximum matching every round,
// maximizing current-round service, keeping scheduled requests scheduled.
func NewAEager() Strategy { return strategies.NewEager() }

// NewABalance returns A_balance: like A_eager with the full balance
// objective F — the paper's best simple strategy.
func NewABalance() Strategy { return strategies.NewBalance() }

// NewEDF returns the independent-copies Earliest Deadline First reference
// strategy (1-competitive with one alternative, exactly 2-competitive with
// two; Observations 3.1 and 3.2).
func NewEDF() Strategy { return strategies.NewEDF() }

// NewEDFCoordinated returns the EDF ablation that cancels sibling copies.
func NewEDFCoordinated() Strategy { return strategies.NewEDFCoordinated() }

// NewFirstFit returns the first-fit baseline.
func NewFirstFit() Strategy { return strategies.NewFirstFit() }

// NewRandomFit returns the seeded random-slot baseline.
func NewRandomFit(seed int64) Strategy { return strategies.NewRandomFit(seed) }

// NewRanking returns the RANKING-style randomized strategy (random fixed
// slot ranks, greedy minimum-rank assignment) — the [KVV90]-inspired
// extension experiment.
func NewRanking(seed int64) Strategy { return strategies.NewRanking(seed) }

// NewFixWeighted returns the weighted A_fix variant (heaviest arrivals
// admitted first; never reschedules) for the weighted extension.
func NewFixWeighted() Strategy { return strategies.NewFixWeighted() }

// NewEagerWeighted returns the weighted rescheduler: every round it
// recomputes the maximum-total-weight matching over the window, displacing
// lighter requests for heavier ones.
func NewEagerWeighted() Strategy { return strategies.NewEagerWeighted() }

// Local (distributed) strategies.

// NewALocalFix returns A_local_fix: two communication rounds per scheduling
// round, exactly 2-competitive (Theorem 3.7).
func NewALocalFix() Strategy { return local.NewFix() }

// NewALocalEager returns A_local_eager: at most nine communication rounds
// per scheduling round, 5/3-competitive (Theorem 3.8).
func NewALocalEager() Strategy { return local.NewEager() }

// NewALocalEagerWide returns A_local_eager with a 2d-2 mailbox; only the
// mailbox capacity differs, not the communication rounds.
func NewALocalEagerWide() Strategy { return local.NewEagerWide() }

// Strategies returns a fresh instance of every listed strategy, keyed by
// name — the registry's default iteration set.
func Strategies() map[string]Strategy {
	return registry.ListedStrategies()
}

// GlobalStrategies returns the five Table 1 strategies in row order.
func GlobalStrategies() []Strategy {
	return []Strategy{NewAFix(), NewACurrent(), NewAFixBalance(), NewAEager(), NewABalance()}
}

// StrategyByName returns a fresh strategy by registry spec — a name,
// optionally followed by ",key=value" parameters, e.g. "A_balance" or
// "compose,router=greedy,order=sjf" — or nil for unknown names or invalid
// parameters.
func StrategyByName(spec string) Strategy {
	s, err := registry.NewStrategySpec(spec)
	if err != nil {
		return nil
	}
	return s
}

// Adversarial constructions (Section 2 and Theorem 3.7).

// AdversaryFix builds the Theorem 2.1 input forcing 2 - 1/d on A_fix.
func AdversaryFix(d, phases int) Construction { return adversary.Fix(d, phases) }

// AdversaryCurrent builds the Theorem 2.2 input forcing e/(e-1) (as l grows)
// on A_current; d = lcm(1..l).
func AdversaryCurrent(l, phases int) Construction { return adversary.Current(l, phases) }

// AdversaryCurrentBound returns the analytic forced ratio of
// AdversaryCurrent for finite l.
func AdversaryCurrentBound(l int) float64 { return adversary.CurrentBound(l) }

// AdversaryFixBalance builds the Theorem 2.3 input forcing 3d/(2d+2) on
// A_fix_balance (even d).
func AdversaryFixBalance(d, phases int) Construction { return adversary.FixBalance(d, phases) }

// AdversaryEager builds the Theorem 2.4 input forcing 4/3 on A_eager (and,
// at d=2, on A_current, A_fix_balance and A_balance).
func AdversaryEager(d, phases int) Construction { return adversary.Eager(d, phases) }

// AdversaryBalance builds the Theorem 2.5 input forcing (5d+2)/(4d+1) on
// A_balance for d = 3x-1, with k independent resource groups.
func AdversaryBalance(x, k, intervals int) Construction { return adversary.Balance(x, k, intervals) }

// AdversaryUniversal builds the adaptive Theorem 2.6 input forcing at least
// 45/41 on every deterministic online algorithm (3 | d).
func AdversaryUniversal(d, cycles int) Construction { return adversary.Universal(d, cycles) }

// AdversaryLocalFix builds the Theorem 3.7 input forcing exactly 2 on
// A_local_fix.
func AdversaryLocalFix(d, intervals int) Construction { return adversary.LocalFix(d, intervals) }

// AdversaryEDF builds the input family on which independent-copies EDF is
// exactly 2-competitive (Observation 3.2).
func AdversaryEDF(d, intervals int) Construction { return adversary.EDFWorstCase(d, intervals) }

// Measurement harness.

// MeasureChecked runs s over tr and compares with the offline optimum. An
// invalid trace returns an error naming the first offending request.
func MeasureChecked(s Strategy, tr *Trace) (Measurement, error) {
	return ratio.MeasureChecked(s, tr)
}

// MeasureConstruction runs s on an adversarial construction and attaches the
// construction's proven bound. A fixed trace is measured like MeasureChecked;
// an adaptive source like MeasureAdaptiveStream.
func MeasureConstruction(c Construction, s Strategy) Measurement {
	return ratio.MeasureConstruction(c, s)
}

// MeasureJob is one (construction, strategy) measurement for
// MeasureParallelChecked.
type MeasureJob = ratio.Job

// MeasureParallelChecked runs the jobs on a worker pool (GOMAXPROCS workers
// if workers <= 0) and returns measurements in job order. A panicking job
// does not take down its siblings: they complete, and the error joins one
// *MeasureJobPanic per failed job.
func MeasureParallelChecked(jobs []MeasureJob, workers int) ([]Measurement, error) {
	return ratio.RunParallelChecked(jobs, workers)
}

// MeasureJobPanic attributes a panic in a MeasureParallelChecked job to the
// job's name and index.
type MeasureJobPanic = ratio.JobPanic

// FormatRatio renders a measured competitive ratio with the given number of
// decimals, spelling starvation out as "inf" and NaN as "NaN" instead of a
// misleading numeric value — the one formatting rule shared by every CSV-
// and table-emitting tool.
func FormatRatio(r float64, decimals int) string { return ratio.FormatRatio(r, decimals) }

// RatioSummary aggregates a strategy's empirical ratio over many seeds.
type RatioSummary = ratio.Summary

// SummarizeParallel measures mk() against gen(seed) for seeds 0..seeds-1 on
// a worker pool (workers <= 0: GOMAXPROCS) and aggregates the ratios (mean,
// deviation, extremes). Results are folded strictly in seed order, so the
// summary is bit-identical for every worker count. A panicking seed surfaces
// as a *MeasureJobPanic naming it.
func SummarizeParallel(mk func() Strategy, gen func(seed int64) *Trace, seeds, workers int) (*RatioSummary, error) {
	return ratio.SummarizeParallel(func() core.Strategy { return mk() }, gen, seeds, workers)
}

// AdversaryUniversalAnyD is the Theorem 2.6 remark variant for deadlines not
// divisible by three (>= 12/11 for every d >= 4).
func AdversaryUniversalAnyD(d, cycles int) Construction {
	return adversary.UniversalAnyD(d, cycles)
}

// RenderGrid draws the fulfillment log as a resources-by-rounds ASCII grid
// over rounds [from, to) (to < 0 means the whole horizon).
func RenderGrid(tr *Trace, log []Fulfillment, from, to int) string {
	return render.Grid(tr, log, from, to)
}

// RenderArrivals lists the injection schedule over rounds [from, to).
func RenderArrivals(tr *Trace, from, to int) string { return render.Arrivals(tr, from, to) }

// RenderLosses lists the requests the log failed to serve, by arrival round.
func RenderLosses(tr *Trace, log []Fulfillment) string { return render.LossSummary(tr, log) }

// RenderDiff lists the slots where two schedules of the same trace differ.
func RenderDiff(tr *Trace, a, b []Fulfillment) string { return render.Diff(tr, a, b) }

// Workload generators.

// Uniform generates uniformly random two-choice traffic.
func Uniform(cfg WorkloadConfig) *Trace { return workload.Uniform(cfg) }

// Zipf generates hot-spot traffic with Zipf-distributed first alternatives.
func Zipf(cfg WorkloadConfig, s float64) *Trace { return workload.Zipf(cfg, s) }

// Bursty generates on/off correlated traffic.
func Bursty(cfg WorkloadConfig, onLen, offLen int, burstRate float64) *Trace {
	return workload.Bursty(cfg, onLen, offLen, burstRate)
}

// VideoServer generates the paper's motivating video-on-demand workload: a
// replicated catalog with Zipf popularity.
func VideoServer(cfg WorkloadConfig, items int, s float64) *Trace {
	return workload.VideoServer(cfg, items, s)
}

// SingleChoice generates one-alternative traffic (Observation 3.1).
func SingleChoice(cfg WorkloadConfig) *Trace { return workload.SingleChoice(cfg) }

// CChoice generates c-alternative traffic (the EDF extension).
func CChoice(cfg WorkloadConfig, c int) *Trace { return workload.CChoice(cfg, c) }

// MixedDeadlines generates two-choice traffic with per-request deadline
// windows drawn from [1, D] (the heterogeneous-deadline extension).
func MixedDeadlines(cfg WorkloadConfig) *Trace { return workload.MixedDeadlines(cfg) }

// Weighted generates uniform two-choice traffic with 1/w-distributed weights
// in {1..maxW} (priority classes for the weighted extension).
func Weighted(cfg WorkloadConfig, maxW int) *Trace { return workload.Weighted(cfg, maxW) }

// TrapMix embeds Theorem 2.1-style traps into random background traffic
// every trapEvery rounds — the "realistic but occasionally adversarial"
// blend that separates the rescheduling strategies from the fix family.
func TrapMix(cfg WorkloadConfig, trapEvery int) *Trace { return workload.TrapMix(cfg, trapEvery) }

// ShuffleAlts returns a copy of tr with every request's alternative listing
// shuffled — the tie-breaking ablation for adversaries that steer through
// listing order.
func ShuffleAlts(tr *Trace, seed int64) *Trace { return workload.ShuffleAlts(tr, seed) }

// WithWeights returns a copy of tr whose requests draw harmonic 1/w weights
// from [1, maxW] — turns any trace shape into a weighted workload.
func WithWeights(tr *Trace, maxW int, seed int64) *Trace {
	return workload.WithWeights(tr, maxW, seed)
}

// ShuffleArrivalOrder returns a copy of tr with the per-round injection
// order shuffled — the ablation for adversaries that steer through ID order.
func ShuffleArrivalOrder(tr *Trace, seed int64) *Trace {
	return workload.ShuffleArrivalOrder(tr, seed)
}

// Trace serialization.

// WriteTrace serializes tr as JSON.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// ReadTrace deserializes and validates a trace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTraceStream serializes tr as JSONL (header line plus one request per
// line, in arrival order) — the streaming format for traces too large to hold
// as one JSON document. Generators that never materialize a Trace use
// TraceStreamWriter directly.
func WriteTraceStream(w io.Writer, tr *Trace) error { return trace.WriteStream(w, tr) }

// ReadTraceStream materializes a whole JSONL stream as a validated trace.
func ReadTraceStream(r io.Reader) (*Trace, error) { return trace.ReadStream(r) }

// TraceStreamWriter emits a JSONL trace request by request; TraceStreamReader
// decodes one record by record.
type (
	TraceStreamWriter = trace.StreamWriter
	TraceStreamReader = trace.StreamReader
)

// NewTraceStreamWriter writes the JSONL header for a trace over n resources
// with default window d and returns the writer.
func NewTraceStreamWriter(w io.Writer, n, d int) (*TraceStreamWriter, error) {
	return trace.NewStreamWriter(w, n, d)
}

// NewTraceStreamReader reads and validates the JSONL header.
func NewTraceStreamReader(r io.Reader) (*TraceStreamReader, error) {
	return trace.NewStreamReader(r)
}

// SummarizeTrace computes summary statistics for tr.
func SummarizeTrace(tr *Trace) TraceStats { return trace.Summarize(tr) }
