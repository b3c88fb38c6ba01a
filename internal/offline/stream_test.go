package offline

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"reqsched/internal/trace"
)

func TestOptimumStreamEqualsOptimum(t *testing.T) {
	// Serialize gapped traces as JSONL and solve them from the stream: the
	// optimum must equal the Dinic max-flow optimum of the whole graph, and
	// the segment count SegmentTrace's.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		tr := gappedTrace(rng, 2+rng.Intn(4), 1+rng.Intn(3), 2+rng.Intn(4), 5)
		want := optimumByFlow(tr)
		var buf bytes.Buffer
		if err := trace.WriteStream(&buf, tr); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, nsegs, err := OptimumStream(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: OptimumStream = %d, flow = %d", trial, got, want)
		}
		if segs := len(SegmentTrace(tr)); nsegs != segs {
			t.Fatalf("trial %d: OptimumStream counts %d segments, SegmentTrace %d", trial, nsegs, segs)
		}
	}
}

func TestOptimumStreamPropagatesError(t *testing.T) {
	bad := `{"n":2,"d":2}` + "\n" + `{"t":0,"alts":[9]}` + "\n"
	_, _, err := OptimumStream(strings.NewReader(bad))
	if err == nil {
		t.Fatal("stream error swallowed")
	}
}
