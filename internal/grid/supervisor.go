package grid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"reqsched/internal/ratio"
)

// Options configures the grid supervisor.
type Options struct {
	// Workers is the number of worker slots (<= 0: 1). Ignored when the
	// Transport pins its own slot count (the TCP transport runs one slot per
	// worker address).
	Workers int
	// Transport hands the supervisor worker connections. Nil selects the
	// pipe transport built from WorkerCmd/WorkerEnv.
	Transport Transport
	// WorkerCmd is the argv spawning one worker (required when Transport is
	// nil). The worker must speak the gridworker JSONL protocol on
	// stdin/stdout.
	WorkerCmd []string
	// WorkerEnv is appended to the inherited environment of each worker.
	WorkerEnv []string
	// Journal, when non-nil, receives every verified record as it completes.
	Journal *Journal
	// Done holds journaled records from a previous run (by job ID); their
	// cells are folded without re-running.
	Done map[string]Record
	// JobTimeout is the per-job wall-clock deadline (default 5m).
	JobTimeout time.Duration
	// Heartbeat is the maximum silence before a worker is declared dead and
	// reaped (default 15s). It must comfortably exceed the worker's beat
	// interval.
	Heartbeat time.Duration
	// Retries is how many times a failed cell is re-attempted after its
	// first failure before being marked failed (0: default 3). Negative
	// budgets are rejected by Validate; set NoRetries for a true zero budget.
	Retries int
	// NoRetries disables re-attempts entirely: every cell gets exactly one
	// try. It exists because Retries == 0 selects the default budget.
	NoRetries bool
	// BackoffBase and BackoffMax shape the exponential retry backoff
	// (defaults 100ms and 5s); Seed seeds its jitter.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Seed        int64
	// Log receives worker stderr and supervisor diagnostics (nil: discard).
	Log io.Writer
}

// Validate rejects option values that would silently misbehave — negative
// durations arm timers that fire immediately (or never), and a negative retry
// budget used to be a hidden "no retries" sentinel. Zero always means "use
// the default" and stays valid.
func (o *Options) Validate() error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"JobTimeout", o.JobTimeout},
		{"Heartbeat", o.Heartbeat},
		{"BackoffBase", o.BackoffBase},
		{"BackoffMax", o.BackoffMax},
	} {
		if d.v < 0 {
			return fmt.Errorf("grid: negative %s %s (zero selects the default)", d.name, d.v)
		}
	}
	if o.BackoffBase > 0 && o.BackoffMax > 0 && o.BackoffMax < o.BackoffBase {
		return fmt.Errorf("grid: BackoffMax %s below BackoffBase %s", o.BackoffMax, o.BackoffBase)
	}
	if o.Retries < 0 {
		return fmt.Errorf("grid: negative retry budget %d (set NoRetries for a zero budget)", o.Retries)
	}
	return nil
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = 1
	}
	if out.JobTimeout <= 0 {
		out.JobTimeout = 5 * time.Minute
	}
	if out.Heartbeat <= 0 {
		out.Heartbeat = 15 * time.Second
	}
	switch {
	case out.NoRetries || out.Retries < 0:
		out.Retries = 0
	case out.Retries == 0:
		out.Retries = 3
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 100 * time.Millisecond
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 5 * time.Second
	}
	out.Log = lockedLog(out.Log)
	return out
}

// Failure is one grid cell that exhausted its retry budget. The grid still
// completes: sibling cells are unaffected, and the failure is reported
// explicitly instead of poisoning or silently dropping the row.
type Failure struct {
	Index    int
	ID       string
	Name     string
	Attempts int
	Err      string
}

// Report is the outcome of a grid run: measurements by manifest index (zero
// where Done[i] is false), provenance counters, and the explicit failure
// list.
type Report struct {
	Measurements []ratio.Measurement
	Done         []bool
	// FromJournal counts cells folded from the checkpoint journal without
	// re-running; Retried counts re-attempts after failures.
	FromJournal int
	Retried     int
	// Duplicates counts stale records discarded by at-most-once acceptance:
	// a retried job whose first attempt's record surfaces late is counted
	// here, never journaled twice.
	Duplicates int
	// LostHosts names worker hosts (sorted) that disappeared mid-run; their
	// in-flight cells were requeued onto survivors.
	LostHosts []string
	Failures  []Failure
}

// AllDone reports whether every cell completed.
func (r *Report) AllDone() bool {
	for _, d := range r.Done {
		if !d {
			return false
		}
	}
	return true
}

// FailureReport formats the failed cells for humans; empty when none failed.
func (r *Report) FailureReport() string {
	if len(r.Failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "grid: %d of %d cells failed after retries:\n", len(r.Failures), len(r.Done))
	for _, f := range r.Failures {
		name := f.Name
		if name == "" {
			name = f.ID
		}
		fmt.Fprintf(&b, "  cell %d (%s): %d attempts, last error: %s\n", f.Index, name, f.Attempts, f.Err)
	}
	if len(r.LostHosts) > 0 {
		fmt.Fprintf(&b, "  lost worker hosts: %s\n", strings.Join(r.LostHosts, ", "))
	}
	return b.String()
}

// fold seeds a report with journaled records and returns the indices still
// pending. A journaled record is re-verified before it is trusted — a
// corrupted checkpoint re-runs its cell rather than poisoning the grid.
func fold(jobs []Job, done map[string]Record) (*Report, []int, error) {
	rep := &Report{
		Measurements: make([]ratio.Measurement, len(jobs)),
		Done:         make([]bool, len(jobs)),
	}
	var pending []int
	for i, job := range jobs {
		if job.Index != i {
			return nil, nil, fmt.Errorf("grid: job %d has index %d (manifest must be in index order)", i, job.Index)
		}
		if err := job.Spec.Validate(); err != nil {
			return nil, nil, err
		}
		if rec, ok := done[job.ID]; ok && rec.Verify() == nil {
			rep.Measurements[i] = rec.M.ToMeasurement()
			rep.Done[i] = true
			rep.FromJournal++
			continue
		}
		pending = append(pending, i)
	}
	return rep, pending, nil
}

// slot is one supervisor worker slot: it owns at most one live worker
// connection and replaces it after any failure (a worker that timed out,
// died, or returned a bad record is never trusted with another job).
type slot struct {
	opts  *Options
	tr    Transport
	idx   int
	isDup func(id string) bool
	c     WorkerConn
}

func (s *slot) ensure(ctx context.Context) error {
	if s.c != nil {
		return nil
	}
	c, err := s.tr.Dial(ctx, s.idx)
	if err != nil {
		return err
	}
	s.c = c
	return nil
}

func (s *slot) recycle() {
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
}

// resetTimer safely re-arms a timer for d.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// attempt runs one job on the slot's worker once, enforcing the wall-clock
// deadline and heartbeat liveness, and re-verifying the returned record
// (digest + OPT/ALG invariants) before trusting it.
func (s *slot) attempt(ctx context.Context, job Job) (Record, error) {
	if err := s.ensure(ctx); err != nil {
		return Record{}, err
	}
	if err := s.c.Send(job); err != nil {
		return Record{}, fmt.Errorf("send job: %w", err)
	}
	deadline := time.NewTimer(s.opts.JobTimeout)
	defer deadline.Stop()
	hb := time.NewTimer(s.opts.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-ctx.Done():
			return Record{}, ctx.Err()
		case pl, ok := <-s.c.Lines():
			if !ok {
				return Record{}, errors.New("worker exited mid-job")
			}
			if pl.err != nil {
				return Record{}, fmt.Errorf("worker stream: %w", pl.err)
			}
			out := pl.out
			switch {
			case out.HB != "":
				if out.HB == job.ID {
					resetTimer(hb, s.opts.Heartbeat)
				}
				// Stale beats from a previous job are ignored: they prove the
				// process is alive but not that OUR job is progressing.
			case out.Err != nil:
				if out.Err.ID != job.ID {
					return Record{}, fmt.Errorf("error for wrong job %s (want %s)", out.Err.ID, job.ID)
				}
				return Record{}, fmt.Errorf("worker job error: %s", out.Err.Msg)
			case out.Result != nil:
				rec := *out.Result
				if rec.ID != job.ID {
					// At-most-once acceptance: a record for a job the grid
					// already accepted is a late duplicate (a retried job's
					// first attempt surfacing) — discard it and keep waiting
					// for ours. A record for an unknown job is a sick worker.
					if s.isDup != nil && s.isDup(rec.ID) {
						continue
					}
					return Record{}, fmt.Errorf("result for wrong job %s (want %s)", rec.ID, job.ID)
				}
				if err := rec.Verify(); err != nil {
					return Record{}, fmt.Errorf("rejected worker record: %w", err)
				}
				return rec, nil
			}
		case <-deadline.C:
			return Record{}, fmt.Errorf("job deadline %s exceeded", s.opts.JobTimeout)
		case <-hb.C:
			return Record{}, fmt.Errorf("no heartbeat within %s", s.opts.Heartbeat)
		}
	}
}

// runJob drives one job through the retry loop: exponential backoff with
// jitter between attempts, a fresh worker after every failure, and a bounded
// budget after which the cell is marked failed. A *HostLost error short-
// circuits the loop unretried — the host is gone for good, so the caller must
// requeue the job onto a surviving slot instead of burning its budget here.
// It returns the verified record, the number of attempts made, and the last
// error if the budget ran out.
func (s *slot) runJob(ctx context.Context, job Job, backoff func(attempt int) time.Duration) (Record, int, error) {
	var lastErr error
	for attempt := 0; attempt <= s.opts.Retries; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff(attempt))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return Record{}, attempt, errors.Join(lastErr, ctx.Err())
			}
		}
		if err := ctx.Err(); err != nil {
			return Record{}, attempt, errors.Join(lastErr, err)
		}
		rec, err := s.attempt(ctx, job)
		if err == nil {
			return rec, attempt + 1, nil
		}
		s.recycle()
		var hl *HostLost
		if errors.As(err, &hl) {
			return Record{}, attempt, err
		}
		lastErr = err
	}
	return Record{}, s.opts.Retries + 1, lastErr
}

// Run executes the manifest on a pool of worker slots, journaling every
// verified record as it completes. Cells already present (and verifiable) in
// opts.Done are folded without re-running, which is what makes an interrupted
// grid resume bit-identically. Cancellation stops dispatching and returns
// ctx's error with the partial report — everything already journaled
// survives. Cells that exhaust their retry budget appear in Report.Failures;
// a worker host that disappears mid-run retires its slot, returns its
// in-flight cell to the queue, and is named in Report.LostHosts — the sweep
// completes on survivors, and only fails (explicitly) once every host is
// gone. Run returns a non-ctx error only for invalid options or
// infrastructure failures (journal write errors).
func Run(ctx context.Context, jobs []Job, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	rep, pending, err := fold(jobs, o.Done)
	if err != nil {
		return nil, err
	}
	if len(pending) == 0 {
		return rep, ctx.Err()
	}
	tr := o.Transport
	if tr == nil {
		tr = &PipeTransport{Cmd: o.WorkerCmd, Env: o.WorkerEnv, Log: o.Log}
	}
	workers := o.Workers
	if n := tr.Slots(); n > 0 {
		workers = n
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	var mu sync.Mutex // guards rep, accepted, hardErrs, rng, remaining, live
	var hardErrs []error
	rng := rand.New(rand.NewSource(o.Seed))
	backoff := func(attempt int) time.Duration {
		d := o.BackoffBase << (attempt - 1)
		if d > o.BackoffMax || d <= 0 {
			d = o.BackoffMax
		}
		mu.Lock()
		j := time.Duration(rng.Int63n(int64(d)/2 + 1))
		mu.Unlock()
		return d + j
	}

	// accepted is the at-most-once gate: one entry per record the grid has
	// taken (folded from the journal or accepted live). Late duplicates —
	// a retried job's first attempt surfacing after the retry already
	// succeeded — are counted and discarded, never double-journaled.
	accepted := make(map[string]bool, len(jobs))
	for i, d := range rep.Done {
		if d {
			accepted[jobs[i].ID] = true
		}
	}
	isDup := func(id string) bool {
		mu.Lock()
		defer mu.Unlock()
		if !accepted[id] {
			return false
		}
		rep.Duplicates++
		return true
	}

	// The queue is buffered to hold every pending cell so a retiring slot can
	// requeue its in-flight cell without blocking; done closes when the last
	// cell reaches a terminal state (accepted or failed).
	queue := make(chan int, len(jobs))
	for _, idx := range pending {
		queue <- idx
	}
	remaining := len(pending)
	done := make(chan struct{})
	finishJob := func() { // callers hold mu
		remaining--
		if remaining == 0 {
			close(done)
		}
	}
	live := workers

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slotIdx int) {
			defer wg.Done()
			s := &slot{opts: &o, tr: tr, idx: slotIdx, isDup: isDup}
			defer s.recycle()
			for {
				var idx int
				select {
				case <-ctx.Done():
					return
				case <-done:
					return
				case idx = <-queue:
				}
				rec, attempts, err := s.runJob(ctx, jobs[idx], backoff)
				var hl *HostLost
				if err != nil && ctx.Err() == nil && errors.As(err, &hl) {
					// The slot's host is gone for good: hand the cell back to
					// the queue for survivors and retire this slot. The queue
					// requeue and the live decrement happen under one mutex
					// hold so the last retiring slot sees every handed-back
					// cell when it drains.
					mu.Lock()
					rep.Retried += attempts
					queue <- idx
					rep.LostHosts = append(rep.LostHosts, hl.Host)
					live--
					fmt.Fprintf(o.Log, "grid: worker host %s lost: %v; requeueing cell %d on survivors\n", hl.Host, hl.Err, idx)
					if live == 0 {
						reason := fmt.Sprintf("all worker hosts lost (%s)", joinSorted(rep.LostHosts))
					drain:
						for {
							select {
							case i := <-queue:
								rep.Failures = append(rep.Failures, Failure{
									Index: i, ID: jobs[i].ID, Name: jobs[i].Name,
									Attempts: 0, Err: reason,
								})
								finishJob()
							default:
								break drain
							}
						}
						fmt.Fprintf(o.Log, "grid: %s; failing %d remaining cells\n", reason, len(rep.Failures))
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				rep.Retried += attempts - 1
				if err != nil {
					if ctx.Err() == nil {
						rep.Failures = append(rep.Failures, Failure{
							Index: idx, ID: jobs[idx].ID, Name: jobs[idx].Name,
							Attempts: attempts, Err: err.Error(),
						})
						fmt.Fprintf(o.Log, "grid: cell %d (%s) failed after %d attempts: %v\n",
							idx, jobs[idx].ID, attempts, err)
						finishJob()
					}
					mu.Unlock()
					continue
				}
				rep.Measurements[idx] = rec.M.ToMeasurement()
				rep.Done[idx] = true
				accepted[jobs[idx].ID] = true
				finishJob()
				mu.Unlock()
				if jerr := o.Journal.Append(rec); jerr != nil {
					mu.Lock()
					hardErrs = append(hardErrs, jerr)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	sort.Slice(rep.Failures, func(i, j int) bool { return rep.Failures[i].Index < rep.Failures[j].Index })
	rep.LostHosts = dedupSorted(rep.LostHosts)
	if len(hardErrs) > 0 {
		return rep, errors.Join(hardErrs...)
	}
	return rep, ctx.Err()
}

func joinSorted(hosts []string) string {
	return strings.Join(dedupSorted(append([]string(nil), hosts...)), ", ")
}

func dedupSorted(hosts []string) []string {
	sort.Strings(hosts)
	out := hosts[:0]
	for i, h := range hosts {
		if i == 0 || hosts[i-1] != h {
			out = append(out, h)
		}
	}
	return out
}
