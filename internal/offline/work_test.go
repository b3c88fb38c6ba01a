package offline

import (
	"bytes"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/matching"
	"reqsched/internal/trace"
	"reqsched/internal/workload"
)

// gappedBursty is the gapped bursty trace of the incremental-optimum pins:
// bursts of 4 rounds at rate 50 on n=16, d=4, then 8 silent rounds, so every
// burst is an independent segment. 1,200 rounds give 100 segments and about
// 20,000 requests.
func gappedBursty(rounds int) *core.Trace {
	return workload.Bursty(workload.Config{N: 16, D: 4, Rounds: rounds, Seed: 5}, 4, 8, 50)
}

// TestIncrementalOptWork pins the exact cost of the incremental optimum on
// the gapped bursty trace: its value, the augmenting searches it starts and
// the rights they mark, and its allocations, which must not grow with the
// trace. The cold pass — a fresh Optimum per materialized segment, the shape
// the incremental matcher replaced — is pinned beside it. The counts are a
// property of the code, not of the host, so an algorithmic regression fails
// here on any machine; an intended change updates the pins in the same diff.
func TestIncrementalOptWork(t *testing.T) {
	tr := gappedBursty(1200)
	const wantOpt = 11194
	if got := Optimum(tr); got != wantOpt {
		t.Fatalf("Optimum = %d, want %d", got, wantOpt)
	}

	o := NewIncrementalOptModel(tr.N, tr.Model)
	if got := o.feed(tr); got != wantOpt {
		t.Fatalf("OptimumIncremental = %d, want %d", got, wantOpt)
	}
	want := matching.Work{Searches: 20134, Marks: 25789}
	if got := o.inc.Work(); got != want {
		t.Errorf("incremental work %+v, want %+v", got, want)
	}

	if testing.Short() {
		t.Skip("allocation counting is slow with -short")
	}
	long := gappedBursty(4 * 1200)
	short := testing.AllocsPerRun(3, func() { OptimumIncremental(tr) })
	longer := testing.AllocsPerRun(3, func() { OptimumIncremental(long) })
	t.Logf("OptimumIncremental: %v allocs per run at 1x, %v at 4x", short, longer)
	if longer != short {
		t.Errorf("OptimumIncremental: %v allocs at 4x the trace vs %v at 1x: the requests allocate", longer, short)
	}

	var buf bytes.Buffer
	if err := trace.WriteStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var segs []*core.Trace
	for sub, err := range trace.Segments(&buf) {
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, sub)
	}
	if len(segs) != 100 {
		t.Fatalf("%d segments, want 100", len(segs))
	}
	const wantCold = 61202
	cold := testing.AllocsPerRun(3, func() {
		sum := 0
		for _, sub := range segs {
			sum += Optimum(sub)
		}
		if sum != wantOpt {
			t.Fatalf("cold segment sum %d, want %d", sum, wantOpt)
		}
	})
	if cold != wantCold {
		t.Errorf("cold per-segment pass: %v allocs per run, want %d", cold, wantCold)
	}
}
