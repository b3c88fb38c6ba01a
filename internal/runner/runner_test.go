package runner

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"reqsched/internal/grid"
	"reqsched/internal/grid/chaos"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
)

// testJobs is a small heterogeneous manifest: two adversary constructions
// and two random workloads under different strategies.
func testJobs(t *testing.T) []grid.Job {
	t.Helper()
	iv := registry.IntVal
	jobs, err := Manifest([]Record{
		{Name: "current/l=2", Strategy: "A_current", Source: "current", Params: registry.Params{"l": iv(2), "phases": iv(3)}},
		{Name: "fix/d=3", Strategy: "A_fix", Source: "fix", Params: registry.Params{"d": iv(3), "phases": iv(3)}},
		{Name: "balance@uniform", Strategy: "A_balance", Source: "uniform", Params: registry.Params{
			"n": iv(4), "d": iv(3), "rounds": iv(40), "rate": registry.FloatVal(3.5), "seed": iv(7)}},
		{Name: "edf@uniform", Strategy: "EDF", Source: "uniform", Params: registry.Params{
			"n": iv(4), "d": iv(3), "rounds": iv(40), "rate": registry.FloatVal(3.5), "seed": iv(8)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func requireSame(t *testing.T, ctx string, got, want []ratio.Measurement) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d measurements, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if want[i].OPT == 0 {
			t.Fatalf("%s: cell %d is degenerate: %+v", ctx, i, want[i])
		}
		if got[i] != want[i] {
			t.Fatalf("%s: cell %d\n got %+v\nwant %+v", ctx, i, got[i], want[i])
		}
	}
}

// measureEach measures every cell directly, one at a time, off the pool: the
// reference the runner's engines are compared against.
func measureEach(t *testing.T, jobs []grid.Job) []ratio.Measurement {
	t.Helper()
	want := make([]ratio.Measurement, len(jobs))
	for i, job := range jobs {
		c, err := job.Spec.Build.Construction()
		if err != nil {
			t.Fatal(err)
		}
		s, err := registry.NewStrategySpec(job.Spec.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ratio.MeasureConstruction(c, s)
		want[i].Input = job.Name
	}
	return want
}

// TestJournalResumeReproducesPlain runs the manifest without a journal and
// journaled, then resumes over the complete journal: every cell folds from it,
// and all three runs equal the cells measured one by one.
func TestJournalResumeReproducesPlain(t *testing.T) {
	jobs := testJobs(t)
	want := measureEach(t, jobs)
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	plain, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Done) != len(jobs) || !plain.AllDone() || plain.FromJournal != 0 {
		t.Fatalf("plain run: Done %v, FromJournal %d", plain.Done, plain.FromJournal)
	}
	requireSame(t, "plain", plain.Measurements, want)

	first, err := Run(context.Background(), jobs, Options{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !first.AllDone() || first.FromJournal != 0 {
		t.Fatalf("journaled run: AllDone %v, FromJournal %d", first.AllDone(), first.FromJournal)
	}
	requireSame(t, "journaled", first.Measurements, want)

	var log strings.Builder
	resumed, err := Run(context.Background(), jobs, Options{Workers: 2, JournalPath: path, Resume: true, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.AllDone() || resumed.FromJournal != len(jobs) {
		t.Fatalf("resumed run: AllDone %v, FromJournal %d, want %d", resumed.AllDone(), resumed.FromJournal, len(jobs))
	}
	requireSame(t, "resumed", resumed.Measurements, want)
	if !strings.Contains(log.String(), "cells from journal") {
		t.Fatalf("resume log %q does not report the journal fold", log.String())
	}
}

// TestRunRejectsInconsistentOptions pins the option combinations Run refuses
// before it measures anything.
func TestRunRejectsInconsistentOptions(t *testing.T) {
	jobs := testJobs(t)
	cases := []struct {
		name string
		o    Options
		want string
	}{
		{"resume without journal", Options{Tool: "sweep", Resume: true}, "-resume requires -journal"},
		{"link fault without remote workers", Options{Tool: "sweep", LinkFault: &chaos.LinkFaults{}}, "needs remote workers"},
	}
	for _, c := range cases {
		res, err := Run(context.Background(), jobs, c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Run = %v, %v; want an error containing %q", c.name, res, err, c.want)
		}
	}
}

// TestManifestNamesBadRecord pins that an invalid record is reported by its
// display name.
func TestManifestNamesBadRecord(t *testing.T) {
	_, err := Manifest([]Record{
		{Name: "good", Strategy: "A_fix", Source: "fix", Params: registry.Params{"d": registry.IntVal(2)}},
		{Name: "bad-cell", Strategy: "no_such_strategy", Source: "fix"},
	})
	if err == nil || !strings.Contains(err.Error(), `"bad-cell"`) {
		t.Fatalf("Manifest error %v does not name the bad record", err)
	}
}
