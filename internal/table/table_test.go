package table

import (
	"strings"
	"testing"
)

func smallConfig() Config { return Config{Phases: 16, Groups: 8} }

// rows measures the Table 1 rows on one worker.
func rows(t *testing.T, cfg Config) []Entry {
	t.Helper()
	out, err := RowsParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRowsCoverEveryTableRow(t *testing.T) {
	entries := rows(t, smallConfig())
	rows := map[string]bool{}
	for _, e := range entries {
		rows[e.Row] = true
	}
	for _, want := range []string{"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance"} {
		if !rows[want] {
			t.Errorf("missing row %s", want)
		}
	}
	universal := 0
	for name := range rows {
		if strings.HasPrefix(name, "any (") {
			universal++
		}
	}
	if universal < 5 {
		t.Errorf("universal row only covers %d strategies", universal)
	}
}

func TestRowsRespectUpperBounds(t *testing.T) {
	for _, e := range rows(t, smallConfig()) {
		if e.ProvenUB == 0 {
			t.Errorf("%s %s: missing upper bound", e.Row, e.Param)
			continue
		}
		if e.Measured() > e.ProvenUB+1e-9 {
			t.Errorf("%s %s: measured %.4f exceeds UB %.4f", e.Row, e.Param, e.Measured(), e.ProvenUB)
		}
	}
}

func TestRowsApproachLowerBoundsFromBelow(t *testing.T) {
	// At modest phase counts the measurement sits below the proven LB but
	// within 20% of it for the non-asymptotic rows (the A_current l-rows
	// and the universal rows measure against limits, skip those).
	for _, e := range rows(t, smallConfig()) {
		if e.LBNote != "" || e.ProvenLB == 0 {
			continue
		}
		if e.Measured() > e.ProvenLB+1e-9 {
			t.Errorf("%s %s: measured %.4f above proven LB %.4f",
				e.Row, e.Param, e.Measured(), e.ProvenLB)
		}
		if e.Measured() < e.ProvenLB*0.8 {
			t.Errorf("%s %s: measured %.4f too far below LB %.4f",
				e.Row, e.Param, e.Measured(), e.ProvenLB)
		}
	}
}

func TestLocalRows(t *testing.T) {
	entries, err := LocalRowsParallel(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sawExactTwo := false
	for _, e := range entries {
		if e.Row == "A_local_fix" && e.Measured() == 2.0 {
			sawExactTwo = true
		}
		if e.Row == "A_local_eager" && e.Measured() > 5.0/3.0+1e-9 {
			t.Errorf("local eager %s: %.4f exceeds 5/3", e.Param, e.Measured())
		}
	}
	if !sawExactTwo {
		t.Error("A_local_fix never measured exactly 2 on its adversary")
	}
}

func TestFormatAlignsAndFlagsViolations(t *testing.T) {
	entries := []Entry{
		{Row: "A_fix", Param: "d=2", Theorem: "Thm", OPT: 3, ALG: 2, ProvenLB: 1.5, ProvenUB: 1.5},
		{Row: "bogus", Param: "d=2", Theorem: "Thm", OPT: 4, ALG: 2, ProvenLB: 1.5, ProvenUB: 1.5},
		{Row: "nolb", Param: "d=2", Theorem: "Thm", OPT: 2, ALG: 2, ProvenUB: 2},
	}
	out := Format(entries)
	if !strings.Contains(out, "VIOLATED") {
		t.Error("UB violation not flagged")
	}
	if !strings.Contains(out, "—") {
		t.Error("missing LB not rendered as dash")
	}
	if strings.Count(out, "\n") != 4 { // header + 3 rows
		t.Errorf("unexpected line count:\n%s", out)
	}
}

func TestEntryMeasuredZeroALG(t *testing.T) {
	e := Entry{OPT: 5, ALG: 0}
	if e.Measured() != 0 {
		t.Fatal("zero ALG should measure 0 (sentinel)")
	}
}

func TestRowsParallelEqualsRows(t *testing.T) {
	// Every cell is an independent deterministic measurement, so the pool
	// must reproduce the one-worker entries exactly at any worker count.
	cfg := smallConfig()
	want := rows(t, cfg)
	wantLocal, err := LocalRowsParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		got, err := RowsParallel(cfg, workers)
		if err != nil {
			t.Fatalf("RowsParallel(workers=%d): %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("RowsParallel(workers=%d): %d entries, one worker %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("RowsParallel(workers=%d) entry %d = %+v, one worker %+v", workers, i, got[i], want[i])
			}
		}
		gotLocal, err := LocalRowsParallel(cfg, workers)
		if err != nil {
			t.Fatalf("LocalRowsParallel(workers=%d): %v", workers, err)
		}
		if len(gotLocal) != len(wantLocal) {
			t.Fatalf("LocalRowsParallel(workers=%d): %d entries, one worker %d", workers, len(gotLocal), len(wantLocal))
		}
		for i := range wantLocal {
			if gotLocal[i] != wantLocal[i] {
				t.Fatalf("LocalRowsParallel(workers=%d) entry %d = %+v, one worker %+v", workers, i, gotLocal[i], wantLocal[i])
			}
		}
	}
}
