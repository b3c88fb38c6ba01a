package grid_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"reqsched/internal/grid"
	"reqsched/internal/grid/chaos"
	"reqsched/internal/ratio"
)

// TestMain doubles as the gridworker body: the supervisor tests spawn this
// test binary with GRID_TEST_WORKER=1 and it speaks the worker protocol on
// stdin/stdout instead of running tests — the standard re-exec trick, so the
// real subprocess machinery (pipes, kills, respawns) is exercised without a
// separately built binary. With GRID_TEST_STDERR=n it instead writes n
// lines to stderr and exits.
func TestMain(m *testing.M) {
	if v := os.Getenv("GRID_TEST_STDERR"); v != "" {
		n, _ := strconv.Atoi(v)
		for i := 0; i < n; i++ {
			fmt.Fprintf(os.Stderr, "worker %d stderr line %d\n", os.Getpid(), i)
		}
		os.Exit(0)
	}
	if os.Getenv("GRID_TEST_WORKER") == "1" {
		hb := 50 * time.Millisecond
		if v := os.Getenv("GRID_TEST_HB"); v != "" {
			if d, err := time.ParseDuration(v); err == nil {
				hb = d
			}
		}
		faults, err := chaos.FromEnv()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := grid.WorkerMain(os.Stdin, os.Stdout, hb, faults); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testManifest is a small, fast, heterogeneous grid: adversarial traces, an
// adaptive source, and a random workload, across several strategies.
func testManifest(t *testing.T) []grid.Job {
	t.Helper()
	specs := []grid.Spec{
		{Strategy: "A_fix", Build: grid.BuildSpec{Kind: "fix", D: 2, Phases: 4}},
		{Strategy: "A_eager", Build: grid.BuildSpec{Kind: "eager", D: 4, Phases: 4}},
		{Strategy: "A_current", Build: grid.BuildSpec{Kind: "current", L: 2, Phases: 2}},
		{Strategy: "A_balance", Build: grid.BuildSpec{Kind: "balance", X: 1, K: 4, Phases: 4}},
		{Strategy: "EDF", Build: grid.BuildSpec{Kind: "uniform", N: 4, D: 3, Rounds: 20, Rate: 5, Seed: 3}},
		{Strategy: "A_fix_balance", Build: grid.BuildSpec{Kind: "fix_balance", D: 4, Phases: 4}},
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = fmt.Sprintf("%s/%s#%d", s.Strategy, s.Build.Kind, i)
	}
	jobs, err := grid.BuildManifest(specs, names)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// cleanMeasurements is the ground truth: the plain in-process pool.
func cleanMeasurements(t *testing.T, jobs []grid.Job) []ratio.Measurement {
	t.Helper()
	ms, err := ratio.RunParallelChecked(grid.RatioJobs(jobs), 2)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func requireSameMeasurements(t *testing.T, want, got []ratio.Measurement, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d measurements", ctx, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: cell %d differs:\n got %+v\nwant %+v", ctx, i, got[i], want[i])
		}
	}
}

// supervisorOpts returns fast-reacting options spawning this test binary as
// the worker.
func supervisorOpts(t *testing.T, workers int, env ...string) grid.Options {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return grid.Options{
		Workers:     workers,
		WorkerCmd:   []string{exe},
		WorkerEnv:   append([]string{"GRID_TEST_WORKER=1", "GRID_TEST_HB=20ms"}, env...),
		JobTimeout:  30 * time.Second,
		Heartbeat:   2 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

// TestPipeWorkersShareLog pins that the stderr copiers of several piped
// workers can share one log writer: exec copies each worker's stderr on a
// goroutine of its own, so an unserialized bytes.Buffer is a data race that
// -race reports.
func TestPipeWorkersShareLog(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const lines = 200
	var buf bytes.Buffer
	tr := &grid.PipeTransport{
		Cmd: []string{exe},
		Env: []string{"GRID_TEST_STDERR=" + strconv.Itoa(lines)},
		Log: &buf,
	}
	var conns []grid.WorkerConn
	for slot := 0; slot < 2; slot++ {
		c, err := tr.Dial(context.Background(), slot)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		for range c.Lines() {
		}
		c.Close() // reaps the worker; its stderr copier is done afterwards
	}
	if got := strings.Count(buf.String(), " stderr line "); got != 2*lines {
		t.Fatalf("log holds %d worker lines, want %d:\n%s", got, 2*lines, buf.String())
	}
}

// TestOptionsValidate pins that option values which would silently misbehave
// (negative timers arming degenerate timeouts, the old negative-Retries
// sentinel) are rejected up front with errors naming the bad field.
func TestOptionsValidate(t *testing.T) {
	jobs := testManifest(t)
	cases := []struct {
		name   string
		mutate func(*grid.Options)
		want   string
	}{
		{"negative job timeout", func(o *grid.Options) { o.JobTimeout = -time.Second }, "JobTimeout"},
		{"negative heartbeat", func(o *grid.Options) { o.Heartbeat = -time.Second }, "Heartbeat"},
		{"negative backoff base", func(o *grid.Options) { o.BackoffBase = -time.Second }, "BackoffBase"},
		{"negative backoff max", func(o *grid.Options) { o.BackoffMax = -time.Second }, "BackoffMax"},
		{"inverted backoff", func(o *grid.Options) { o.BackoffBase = time.Second; o.BackoffMax = time.Millisecond }, "BackoffMax"},
		{"negative retries", func(o *grid.Options) { o.Retries = -1 }, "retry budget"},
	}
	for _, c := range cases {
		opts := supervisorOpts(t, 1)
		c.mutate(&opts)
		if err := opts.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error naming %s", c.name, err, c.want)
		}
		if _, err := grid.Run(context.Background(), jobs, opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Run accepted bad options (err %v)", c.name, err)
		}
	}
	// Zero everywhere stays the documented "use the default".
	if err := (&grid.Options{}).Validate(); err != nil {
		t.Errorf("zero options must validate: %v", err)
	}
}

func TestSupervisorMatchesInProcess(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	for _, workers := range []int{1, 3} {
		rep, err := grid.Run(context.Background(), jobs, supervisorOpts(t, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.AllDone() || len(rep.Failures) != 0 {
			t.Fatalf("workers=%d: incomplete grid: %s", workers, rep.FailureReport())
		}
		requireSameMeasurements(t, want, rep.Measurements, fmt.Sprintf("workers=%d", workers))
	}
}

func TestRunLocalMatchesInProcess(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	dir := t.TempDir()
	j, done, _, err := grid.OpenJournal(filepath.Join(dir, "j.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rep, err := grid.RunLocal(context.Background(), jobs, done, j, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllDone() {
		t.Fatalf("incomplete: %s", rep.FailureReport())
	}
	requireSameMeasurements(t, want, rep.Measurements, "local")
}

// TestChaosSingleFaultSchedules is the tentpole property test: ANY single
// fault — a worker OOM-killed before answering, hung without heartbeats, or
// returning a corrupted record, at any job position — must cost at most a
// retry and leave the grid bit-identical to a clean single-shot run, with
// the corrupt record never journaled.
func TestChaosSingleFaultSchedules(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	type fault struct {
		mode string
		at   int
	}
	var faults []fault
	for at := 0; at < 3; at++ {
		faults = append(faults, fault{chaos.Kill, at}, fault{chaos.Corrupt, at})
	}
	faults = append(faults, fault{chaos.Stall, 0}, fault{chaos.Stall, 2})
	for _, f := range faults {
		f := f
		t.Run(fmt.Sprintf("%s_at_%d", f.mode, f.at), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			jpath := filepath.Join(dir, "journal.jsonl")
			j, done, _, err := grid.OpenJournal(jpath, false)
			if err != nil {
				t.Fatal(err)
			}
			opts := supervisorOpts(t, 2,
				chaos.EnvSpec+"="+fmt.Sprintf("%s:%d", f.mode, f.at),
				chaos.EnvOnce+"="+filepath.Join(dir, "fired"),
			)
			if f.mode == chaos.Stall {
				// Tight liveness so the stalled worker is reaped quickly.
				opts.Heartbeat = 300 * time.Millisecond
			}
			opts.Journal = j
			opts.Done = done
			rep, err := grid.Run(context.Background(), jobs, opts)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			if !rep.AllDone() || len(rep.Failures) != 0 {
				t.Fatalf("incomplete grid under fault: %s", rep.FailureReport())
			}
			requireSameMeasurements(t, want, rep.Measurements, "faulted grid")
			if rep.Retried < 1 {
				t.Fatalf("fault did not cost a retry (did it fire?)")
			}
			// The journal must hold exactly one verified record per cell —
			// in particular, no corrupted record was ever written.
			f2, err := os.Open(jpath)
			if err != nil {
				t.Fatal(err)
			}
			recs, scan, err := grid.ReadJournal(f2)
			f2.Close()
			if err != nil || scan.Skipped > 0 || scan.TornOffset >= 0 {
				t.Fatalf("journal damaged: err=%v scan=%+v", err, scan)
			}
			byID := make(map[string]grid.Record, len(recs))
			for _, r := range recs {
				if err := r.Verify(); err != nil {
					t.Fatal(err)
				}
				byID[r.ID] = r
			}
			if len(byID) != len(jobs) {
				t.Fatalf("journal holds %d cells, want %d", len(byID), len(jobs))
			}
			for i, job := range jobs {
				if got := byID[job.ID].M.ToMeasurement(); got != want[i] {
					t.Fatalf("journaled cell %d differs: %+v vs %+v", i, got, want[i])
				}
			}
		})
	}
}

// TestChaosPersistentCorruption drops the once-file: every worker process
// corrupts its third job (per-process index 2), no retries. With one worker
// dispatching in manifest order and a recycle after each failure, cells 2
// and 5 deterministically hit the fault in every attempt; they must be
// reported failed explicitly, with the rest of the grid intact and the
// poisoned records never emitted.
func TestChaosPersistentCorruption(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	opts := supervisorOpts(t, 1, chaos.EnvSpec+"=corrupt:2")
	opts.NoRetries = true // fail fast
	rep, err := grid.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 2 {
		t.Fatalf("want exactly 2 failed cells, got %d: %s", len(rep.Failures), rep.FailureReport())
	}
	failed := map[int]bool{2: true, 5: true}
	for _, f := range rep.Failures {
		if !failed[f.Index] || !strings.Contains(f.Err, "digest mismatch") {
			t.Fatalf("unexpected failure: %+v", f)
		}
	}
	for i := range jobs {
		if failed[i] {
			if rep.Done[i] {
				t.Fatalf("corrupted cell %d marked done", i)
			}
			continue
		}
		if !rep.Done[i] {
			t.Fatalf("healthy cell %d did not complete", i)
		}
		if rep.Measurements[i] != want[i] {
			t.Fatalf("cell %d poisoned: %+v vs %+v", i, rep.Measurements[i], want[i])
		}
	}
	if rpt := rep.FailureReport(); !strings.Contains(rpt, "2 of 6 cells failed") {
		t.Fatalf("failure report does not name the loss: %q", rpt)
	}
}

// TestCrashResumeAtEveryJobBoundary is the crash-resume property test: kill
// the supervisor after any number of completed cells (journal = that prefix,
// possibly with a torn tail from the in-flight append), then resume — the
// final measurements and journal must equal an uninterrupted run's exactly.
func TestCrashResumeAtEveryJobBoundary(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	dir := t.TempDir()

	// Uninterrupted journaled run: the reference journal.
	refPath := filepath.Join(dir, "ref.jsonl")
	j, done, _, err := grid.OpenJournal(refPath, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := grid.RunLocal(context.Background(), jobs, done, j, 2)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	requireSameMeasurements(t, want, rep.Measurements, "reference run")
	refLines := readLines(t, refPath)
	if len(refLines) != len(jobs) {
		t.Fatalf("reference journal has %d lines, want %d", len(refLines), len(jobs))
	}

	for k := 0; k <= len(jobs); k++ {
		for _, torn := range []bool{false, true} {
			if torn && k == len(jobs) {
				continue // nothing left in flight to tear
			}
			name := fmt.Sprintf("k=%d,torn=%v", k, torn)
			path := filepath.Join(dir, fmt.Sprintf("crash_%d_%v.jsonl", k, torn))
			content := strings.Join(refLines[:k], "")
			if torn {
				// The crash hit mid-append of cell k: half a record, no
				// newline.
				content += refLines[k][:len(refLines[k])/2]
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			j, done, scan, err := grid.OpenJournal(path, true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if torn != (scan.TornOffset >= 0) {
				t.Fatalf("%s: torn detection wrong: %+v", name, scan)
			}
			if len(done) != k {
				t.Fatalf("%s: resumed with %d cells, want %d", name, len(done), k)
			}
			rep, err := grid.RunLocal(context.Background(), jobs, done, j, 2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			j.Close()
			if rep.FromJournal != k {
				t.Fatalf("%s: %d cells from journal, want %d", name, rep.FromJournal, k)
			}
			requireSameMeasurements(t, want, rep.Measurements, name)
			// The resumed journal must again hold exactly one verified
			// record per cell, and they must equal the reference records.
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			recs, scan2, err := grid.ReadJournal(f)
			f.Close()
			if err != nil || scan2.Skipped > 0 || scan2.TornOffset >= 0 {
				t.Fatalf("%s: resumed journal damaged: err=%v scan=%+v", name, err, scan2)
			}
			if len(recs) != len(jobs) {
				t.Fatalf("%s: resumed journal has %d records, want %d", name, len(recs), len(jobs))
			}
		}
	}
}

// TestSupervisorResume exercises the crash-resume path through the real
// subprocess supervisor for one boundary (the local runner covers them all).
func TestSupervisorResume(t *testing.T) {
	jobs := testManifest(t)
	want := cleanMeasurements(t, jobs)
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")

	j, done, _, err := grid.OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := supervisorOpts(t, 2)
	opts.Journal = j
	opts.Done = done
	if _, err := grid.Run(context.Background(), jobs, opts); err != nil {
		t.Fatal(err)
	}
	j.Close()

	lines := readLines(t, path)
	if err := os.WriteFile(path, []byte(strings.Join(lines[:2], "")+lines[2][:10]), 0o644); err != nil {
		t.Fatal(err)
	}
	j, done, scan, err := grid.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if scan.TornOffset < 0 || len(done) != 2 {
		t.Fatalf("scan %+v, done %d", scan, len(done))
	}
	opts = supervisorOpts(t, 2)
	opts.Journal = j
	opts.Done = done
	rep, err := grid.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if rep.FromJournal != 2 {
		t.Fatalf("%d from journal, want 2", rep.FromJournal)
	}
	requireSameMeasurements(t, want, rep.Measurements, "subprocess resume")
}

func TestRunLocalCancellationFlushesJournal(t *testing.T) {
	jobs := testManifest(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, done, _, err := grid.OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled up front: nothing runs, nothing is lost, no failure entries
	rep, err := grid.RunLocal(ctx, jobs, done, j, 2)
	if err == nil {
		t.Fatal("want ctx error")
	}
	j.Close()
	if len(rep.Failures) != 0 {
		t.Fatalf("cancellation must not fabricate failures: %+v", rep.Failures)
	}
	// Resume completes the grid.
	j, done, _, err = grid.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = grid.RunLocal(context.Background(), jobs, done, j, 2)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !rep.AllDone() {
		t.Fatalf("resume after cancel incomplete: %s", rep.FailureReport())
	}
	requireSameMeasurements(t, cleanMeasurements(t, jobs), rep.Measurements, "resume after cancel")
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.SplitAfter(string(b), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}
