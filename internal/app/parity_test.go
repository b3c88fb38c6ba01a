package app

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"reqsched/internal/grid"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/runner"
)

// closureSpecs rebuilds a sweep mode's manifest the way the pre-registry
// frontends did — literal grid.BuildSpec tables — so the tests can prove the
// registry-described records hash to the very same content-derived job IDs.
func closureSpecs(mode string, phases int) ([]grid.Spec, []string) {
	var specs []grid.Spec
	var names []string
	switch mode {
	case "d":
		rows := []struct {
			name  string
			build func(d int) grid.BuildSpec
			ds    []int
		}{
			{"A_fix",
				func(d int) grid.BuildSpec { return grid.BuildSpec{Kind: "fix", D: d, Phases: phases} },
				[]int{2, 3, 4, 6, 8, 12, 16, 24}},
			{"A_fix_balance",
				func(d int) grid.BuildSpec { return grid.BuildSpec{Kind: "fix_balance", D: d, Phases: phases} },
				[]int{2, 4, 6, 8, 12, 16, 24}},
			{"A_eager",
				func(d int) grid.BuildSpec { return grid.BuildSpec{Kind: "eager", D: d, Phases: phases} },
				[]int{2, 4, 6, 8, 12, 16, 24}},
			{"A_balance",
				func(d int) grid.BuildSpec {
					return grid.BuildSpec{Kind: "balance", X: (d + 1) / 3, K: 32, Phases: phases}
				},
				[]int{2, 5, 8, 11, 14}},
			{"A_local_fix",
				func(d int) grid.BuildSpec { return grid.BuildSpec{Kind: "local_fix", D: d, Phases: phases} },
				[]int{1, 2, 4, 8, 16}},
		}
		for _, r := range rows {
			for _, d := range r.ds {
				specs = append(specs, grid.Spec{Strategy: r.name, Build: r.build(d)})
				names = append(names, fmt.Sprintf("%s/d=%d", r.name, d))
			}
		}
	case "l":
		for _, l := range []int{2, 3, 4, 5, 6, 7} {
			specs = append(specs, grid.Spec{
				Strategy: "A_current",
				Build:    grid.BuildSpec{Kind: "current", L: l, Phases: 5},
			})
			names = append(names, fmt.Sprintf("l=%d", l))
		}
	case "load":
		n, d := 8, 4
		snames := make([]string, 0)
		for name := range registry.ListedStrategies() {
			snames = append(snames, name)
		}
		sort.Strings(snames)
		for _, frac := range []float64{0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0} {
			for _, name := range snames {
				specs = append(specs, grid.Spec{
					Strategy: name,
					Build:    grid.BuildSpec{Kind: "uniform", N: n, D: d, Rounds: 150, Rate: frac * float64(n), Seed: 7},
				})
				names = append(names, fmt.Sprintf("%s@%.2f", name, frac))
			}
		}
	}
	return specs, names
}

// sweepRecords returns the registry-record manifest of a sweep mode at the
// default phase count, discarding the printer.
func sweepRecords(mode string) []runner.Record {
	switch mode {
	case "d":
		r, _ := sweepD(60, io.Discard)
		return r
	case "l":
		r, _ := sweepL(io.Discard)
		return r
	default:
		r, _ := sweepLoad(io.Discard)
		return r
	}
}

// TestRecordIDsMatchClosurePath is the stability property of the refactor:
// for every sweep mode, the registry-record pipeline produces the same job
// names, the same wire specs, and — critically — the same sha256-derived job
// IDs as the literal closure-era spec tables, so existing journals and
// sharded runs resume across the refactor boundary.
func TestRecordIDsMatchClosurePath(t *testing.T) {
	for _, mode := range []string{"d", "l", "load"} {
		newJobs, err := runner.Manifest(sweepRecords(mode))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		specs, names := closureSpecs(mode, 60)
		oldJobs, err := grid.BuildManifest(specs, names)
		if err != nil {
			t.Fatalf("mode %s (closure path): %v", mode, err)
		}
		if len(newJobs) != len(oldJobs) {
			t.Fatalf("mode %s: %d jobs vs %d on the closure path", mode, len(newJobs), len(oldJobs))
		}
		for i := range newJobs {
			if newJobs[i].ID != oldJobs[i].ID {
				t.Errorf("mode %s job %d (%s): ID %s != closure-path %s",
					mode, i, newJobs[i].Name, newJobs[i].ID, oldJobs[i].ID)
			}
			if newJobs[i].Name != oldJobs[i].Name {
				t.Errorf("mode %s job %d: name %q != %q", mode, i, newJobs[i].Name, oldJobs[i].Name)
			}
			if newJobs[i].Spec.Strategy != oldJobs[i].Spec.Strategy || newJobs[i].Spec.Build != oldJobs[i].Spec.Build {
				t.Errorf("mode %s job %d: wire spec diverged: %+v vs %+v",
					mode, i, newJobs[i].Spec, oldJobs[i].Spec)
			}
		}
	}
}

// TestJournalResumeBitIdentical proves the three engines agree measurement
// for measurement on every sweep mode, and that a journal written by one run
// is consumed bit-identically by a resumed one — including a resume over a
// partial (truncated) journal.
func TestJournalResumeBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []string{"d", "l", "load"} {
		jobs, err := runner.Manifest(sweepRecords(mode))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}

		// Closure-path reference: the direct ratio pool over the same jobs.
		want, err := ratio.RunParallelChecked(grid.RatioJobs(jobs), 2)
		if err != nil {
			t.Fatalf("mode %s reference: %v", mode, err)
		}

		// Engine 1: plain runner path.
		plain, err := runner.Run(ctx, jobs, runner.Options{Workers: 2})
		if err != nil {
			t.Fatalf("mode %s plain: %v", mode, err)
		}
		requireSame(t, mode+" plain", want, plain.Measurements)

		// Engine 2: journaled path, fresh journal.
		path := t.TempDir() + "/journal.jsonl"
		journaled, err := runner.Run(ctx, jobs, runner.Options{Workers: 2, JournalPath: path})
		if err != nil {
			t.Fatalf("mode %s journaled: %v", mode, err)
		}
		if !journaled.AllDone() {
			t.Fatalf("mode %s journaled: incomplete grid", mode)
		}
		requireSame(t, mode+" journaled", want, journaled.Measurements)

		// Truncate the journal to a prefix: a crash mid-sweep. The resumed
		// run folds the surviving cells and re-measures the rest.
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(b), "\n")
		keep := len(lines) / 2
		if err := os.WriteFile(path, []byte(strings.Join(lines[:keep], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		resumed, err := runner.Run(ctx, jobs, runner.Options{Workers: 2, JournalPath: path, Resume: true})
		if err != nil {
			t.Fatalf("mode %s resumed: %v", mode, err)
		}
		if !resumed.AllDone() {
			t.Fatalf("mode %s resumed: incomplete grid", mode)
		}
		if resumed.FromJournal == 0 {
			t.Errorf("mode %s resumed: no cells folded from the journal", mode)
		}
		requireSame(t, mode+" resumed", want, resumed.Measurements)
	}
}

func requireSame(t *testing.T, label string, want, got []ratio.Measurement) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d measurements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: measurement %d diverged: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// TestSpecParamsRoundTrip closes the loop between the two job descriptions:
// a wire BuildSpec extracts to registry params which rebuild the identical
// spec, for every cell of every sweep mode.
func TestSpecParamsRoundTrip(t *testing.T) {
	for _, mode := range []string{"d", "l", "load"} {
		specs, _ := closureSpecs(mode, 60)
		for _, s := range specs {
			p, err := s.Build.Params()
			if err != nil {
				t.Fatalf("mode %s %+v: %v", mode, s.Build, err)
			}
			back, err := grid.SpecFor(s.Strategy, s.Build.Kind, p)
			if err != nil {
				t.Fatalf("mode %s %+v: %v", mode, s.Build, err)
			}
			if back.Build != s.Build || back.Strategy != s.Strategy {
				t.Errorf("mode %s: round trip diverged: %+v vs %+v", mode, back, s)
			}
		}
	}
}
