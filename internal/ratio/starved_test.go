package ratio

import (
	"strings"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/workload"
)

// TestSummaryStringStarved pins the misleading-extrema fix: a summary whose
// every seed starved has no finite ratio samples, and used to print
// "ratio 0.0000±0.0000 (max 0.0000)" — the zero values of an empty
// accumulator, reading like a perfect score. It must print n/a instead.
func TestSummaryStringStarved(t *testing.T) {
	gen := func(seed int64) *core.Trace {
		return workload.Uniform(workload.Config{N: 3, D: 2, Rounds: 10, Rate: 4, Seed: seed})
	}
	sum := summarize(t, func() core.Strategy { return idleStrategy{} }, gen, 3)
	if sum.Starved != 3 {
		t.Fatalf("idle strategy starved %d of 3 seeds, want all", sum.Starved)
	}
	if sum.Ratio.N() != 0 {
		t.Fatalf("starved summary has %d finite ratio samples, want 0", sum.Ratio.N())
	}
	s := sum.String()
	if !strings.Contains(s, "ratio n/a") {
		t.Errorf("fully starved summary prints %q, want 'ratio n/a'", s)
	}
	if !strings.Contains(s, "starved 3") {
		t.Errorf("summary %q should still report the starved count", s)
	}

	// A summary with finite samples keeps the numeric format.
	var ok Summary
	ok.Strategy, ok.Seeds = "x", 1
	ok.Ratio.Add(1.25)
	ok.Served.Add(10)
	if s := ok.String(); strings.Contains(s, "n/a") || !strings.Contains(s, "1.2500") {
		t.Errorf("healthy summary prints %q", s)
	}
}
