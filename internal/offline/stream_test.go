package offline

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"reqsched/internal/trace"
)

func TestOptimumStreamEqualsOptimum(t *testing.T) {
	// Serialize gapped traces as JSONL, re-segment them from the stream and
	// solve segment by segment: the sum must equal the Dinic max-flow optimum
	// of the whole graph.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		tr := gappedTrace(rng, 2+rng.Intn(4), 1+rng.Intn(3), 2+rng.Intn(4), 5)
		want := optimumByFlow(tr)
		var buf bytes.Buffer
		if err := trace.WriteStream(&buf, tr); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, nsegs, err := OptimumStream(trace.Segments(&buf))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: OptimumStream = %d, flow = %d", trial, got, want)
		}
		if nsegs < 1 {
			t.Fatalf("trial %d: %d segments", trial, nsegs)
		}
	}
}

func TestOptimumStreamPropagatesError(t *testing.T) {
	bad := `{"n":2,"d":2}` + "\n" + `{"t":0,"alts":[9]}` + "\n"
	_, _, err := OptimumStream(trace.Segments(strings.NewReader(bad)))
	if err == nil {
		t.Fatal("stream error swallowed")
	}
}
