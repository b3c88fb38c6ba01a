// Package runner is the shared measurement pipeline behind the CLI
// frontends: a manifest of serializable (strategy, source, params) records
// is expanded into grid jobs — stable content-derived IDs included — and
// executed on one of three interchangeable engines: the in-process worker
// pool (with an optional crash-safe journal), the subprocess supervisor with
// per-job deadlines and retries, or remote TCP gridworkers. The frontends
// (internal/app) only declare records, pick options, and print; everything
// between source and summary lives here, once.
package runner

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"reqsched/internal/grid"
	"reqsched/internal/grid/chaos"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
)

// Record is the declarative description of one measurement cell: a registry
// strategy name, a registry source name (adversary or workload), and the
// source's parameters. Records are pure data — serializable, diffable, and
// convertible to the grid wire format without touching a closure.
type Record struct {
	// Name is the display label measurements are reported under.
	Name string
	// Strategy is a registry strategy spec: a name, optionally followed by
	// ",key=value" parameters (a bare name uses the defaults).
	Strategy string
	// Source is a registry adversary or workload name.
	Source string
	// Params parameterizes the source; unset parameters take the
	// component's schema defaults.
	Params registry.Params
}

// Manifest expands records into the grid job list: each record becomes a
// wire-format Spec (defaults filled, schema validated) with a
// content-derived ID identical to what the same spec has always hashed to.
func Manifest(records []Record) ([]grid.Job, error) {
	specs := make([]grid.Spec, len(records))
	names := make([]string, len(records))
	for i, r := range records {
		spec, err := grid.SpecFor(r.Strategy, r.Source, r.Params)
		if err != nil {
			return nil, fmt.Errorf("runner: record %q: %w", r.Name, err)
		}
		specs[i] = spec
		names[i] = r.Name
	}
	return grid.BuildManifest(specs, names)
}

// Options selects and parameterizes the execution engine.
type Options struct {
	// Tool prefixes progress and warning lines (e.g. "sweep").
	Tool string
	// Workers is the in-process measurement pool size (<= 0: GOMAXPROCS).
	Workers int
	// Shard > 0 runs the cells on that many supervised gridworker
	// subprocesses instead of in-process.
	Shard int
	// JournalPath enables the crash-safe checkpoint journal (JSONL).
	JournalPath string
	// Resume continues from an existing journal (requires JournalPath).
	Resume bool
	// WorkerCmd launches a gridworker subprocess (sharded mode); empty
	// means re-exec this binary with -gridworker appended.
	WorkerCmd []string
	// JobTimeout is the per-cell wall-clock deadline (sharded mode).
	JobTimeout time.Duration
	// Retries is the retry budget per cell before it is marked failed
	// (sharded mode); 0 means no retries.
	Retries int
	// WorkersAt lists TCP gridworker addresses ("host:port"); when set, the
	// cells run on those remote workers over the network transport, one
	// supervisor slot per address.
	WorkersAt []string
	// LinkFault arms one deterministic transport link fault (requires
	// WorkersAt; nil: none).
	LinkFault *chaos.LinkFaults
	// Signals installs SIGINT/SIGTERM handling: an interrupted run drains
	// in-flight cells, flushes checkpoints, and reports Interrupted.
	Signals bool
	// Log receives progress and warning lines (nil: discarded).
	Log io.Writer
}

// Result is what an execution produced.
type Result struct {
	// Measurements holds one entry per job, in manifest order. Entries of
	// failed cells are zero; check Done.
	Measurements []ratio.Measurement
	// Done marks completed cells; it is nil only when an interrupted run
	// stopped before any cell was reported.
	Done []bool
	// FromJournal counts cells folded from the resume journal; Retried
	// counts subprocess retries.
	FromJournal, Retried int
	// FailureReport is the human-readable report of failed cells; empty
	// when the grid completed.
	FailureReport string
	// Interrupted reports that a signal stopped the run after draining and
	// checkpointing in-flight cells.
	Interrupted bool
}

// AllDone reports whether every cell completed.
func (r *Result) AllDone() bool {
	if r.Interrupted {
		return false
	}
	for _, d := range r.Done {
		if !d {
			return false
		}
	}
	return true
}

// Run executes the manifest. Every in-process run (no shard, no remote
// workers) goes through grid.RunLocal on the ratio worker pool, journaled or
// not; the sharded and remote paths add subprocess or TCP supervision with
// identical measurements.
func Run(ctx context.Context, jobs []grid.Job, o Options) (*Result, error) {
	tool := o.Tool
	if tool == "" {
		tool = "runner"
	}
	// One lock for every writer of the log: runner, supervisor and the TCP
	// transport's concurrent Dials.
	log := grid.LockedLog(o.Log)
	if o.Resume && o.JournalPath == "" {
		return nil, fmt.Errorf("%s: -resume requires -journal", tool)
	}

	if o.LinkFault != nil && len(o.WorkersAt) == 0 {
		return nil, fmt.Errorf("%s: a link fault needs remote workers (-workers-at)", tool)
	}
	var j *grid.Journal
	var done map[string]grid.Record
	if o.JournalPath != "" {
		var scan grid.JournalScan
		var err error
		j, done, scan, err = grid.OpenJournal(o.JournalPath, o.Resume)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		if scan.TornOffset >= 0 {
			fmt.Fprintf(log, "%s: journal had a torn final line at byte %d (crash mid-write); truncated and resuming\n", tool, scan.TornOffset)
		}
		if scan.Skipped > 0 {
			fmt.Fprintf(log, "%s: journal had %d corrupt record(s); their cells will re-run\n", tool, scan.Skipped)
		}
	}

	if o.Signals {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	var rep *grid.Report
	var err error
	switch {
	case len(o.WorkersAt) > 0:
		rep, err = grid.Run(ctx, jobs, grid.Options{
			Transport:  &grid.TCPTransport{Addrs: o.WorkersAt, Link: o.LinkFault, Log: log},
			Journal:    j,
			Done:       done,
			JobTimeout: o.JobTimeout,
			Retries:    o.Retries,
			NoRetries:  o.Retries == 0, // runner's 0 means "no retries", not "default"
			Log:        log,
		})
	case o.Shard <= 0:
		rep, err = grid.RunLocal(ctx, jobs, done, j, o.Workers)
	default:
		cmd := o.WorkerCmd
		if len(cmd) == 0 {
			self, eerr := os.Executable()
			if eerr != nil {
				return nil, eerr
			}
			cmd = []string{self, "-gridworker"}
		}
		rep, err = grid.Run(ctx, jobs, grid.Options{
			Workers:    o.Shard,
			WorkerCmd:  cmd,
			Journal:    j,
			Done:       done,
			JobTimeout: o.JobTimeout,
			Retries:    o.Retries,
			NoRetries:  o.Retries == 0, // runner's 0 means "no retries", not "default"
			Log:        log,
		})
	}

	if ctx.Err() != nil {
		n := 0
		res := &Result{Interrupted: true}
		if rep != nil {
			res.Measurements, res.Done = rep.Measurements, rep.Done
			res.FromJournal, res.Retried = rep.FromJournal, rep.Retried
			for _, d := range rep.Done {
				if d {
					n++
				}
			}
		}
		fmt.Fprintf(log, "%s: interrupted; %d/%d cells checkpointed — rerun with -resume to continue\n", tool, n, len(jobs))
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	if rep.FromJournal > 0 || rep.Retried > 0 {
		fmt.Fprintf(log, "%s: %d/%d cells from journal, %d retried\n", tool, rep.FromJournal, len(jobs), rep.Retried)
	}
	if len(rep.LostHosts) > 0 {
		fmt.Fprintf(log, "%s: worker host(s) lost mid-run: %s\n", tool, strings.Join(rep.LostHosts, ", "))
	}
	res := &Result{
		Measurements: rep.Measurements,
		Done:         rep.Done,
		FromJournal:  rep.FromJournal,
		Retried:      rep.Retried,
	}
	if !rep.AllDone() {
		res.FailureReport = rep.FailureReport()
	}
	return res, nil
}
