package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"reqsched/internal/core"
	"reqsched/internal/registry"
	"reqsched/internal/serve"
)

// heldOutSeed is a seed no tuning run used.
const heldOutSeed = 7919

// TestTimingWrapperTransparent pins that the timing decorator changes
// nothing the engine can observe: identical fulfillment logs and comm counts
// for all nine strategies, and the same service-model verdicts.
func TestTimingWrapperTransparent(t *testing.T) {
	tr, err := registry.GenerateWorkload("uniform", registry.Params{
		"n": registry.IntVal(16), "d": registry.IntVal(6), "rounds": registry.IntVal(80),
		"rate": registry.FloatVal(18), "seed": registry.IntVal(heldOutSeed),
	})
	if err != nil {
		t.Fatal(err)
	}
	models := []core.ServiceModel{{Hold: 2, Cap: 1}, {Hold: 1, Cap: 3}}
	for _, name := range sweepStrategies {
		plain, err := registry.NewStrategySpec(name)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := registry.NewStrategySpec(name)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := wrapStrategy(inner, newRecorder(time.Now()), newAllocSample())
		want, err := core.RunChecked(plain, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.RunChecked(wrapped, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(logOf(got), logOf(want)) {
			t.Errorf("%s: wrapped fulfillment log differs", name)
		}
		if got.Fulfilled != want.Fulfilled || got.CommRounds != want.CommRounds || got.Messages != want.Messages {
			t.Errorf("%s: wrapped fulfilled/comm rounds/messages %d/%d/%d, plain %d/%d/%d", name,
				got.Fulfilled, got.CommRounds, got.Messages, want.Fulfilled, want.CommRounds, want.Messages)
		}
		if name == "A_local_fix" && want.Messages == 0 {
			t.Errorf("%s sent no messages; the comm check is vacuous", name)
		}
		if wrapped.rounds == 0 || len(wrapped.rec.spans) != wrapped.rounds {
			t.Errorf("%s: %d rounds, %d spans", name, wrapped.rounds, len(wrapped.rec.spans))
		}
		for _, m := range models {
			pe, we := core.CheckModelSupport(plain, m), core.CheckModelSupport(wrapped, m)
			if (pe == nil) != (we == nil) {
				t.Errorf("%s under %s: plain verdict %v, wrapped %v", name, m, pe, we)
			}
		}
	}
}

type logEntry struct{ id, res, round int }

func logOf(r *core.Result) []logEntry {
	out := make([]logEntry, len(r.Log))
	for i, f := range r.Log {
		out[i] = logEntry{f.Req.ID, f.Res, f.Round}
	}
	return out
}

// smallRun measures a workload at a fraction of its size with the minimum
// number of passes.
func smallRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	r, err := measure(config{workload: workload, seed: heldOutSeed, traced: traced, scale: 0.02, chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHeldOutSeed runs every workload briefly at a seed no tuning run used:
// the correctness gate must pass, every pass must reproduce the seed-fixed
// metrics (a disagreement counts as a failed operation), and the reported
// metrics must be exactly the ones BENCHMARK.json declares.
func TestHeldOutSeed(t *testing.T) {
	decl := declared(t)
	for _, w := range decl.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r := smallRun(t, w.Name, false)
			if r.attempted == 0 || r.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.problems)
			}
			if got, want := keys(r.metrics), names(decl.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for _, m := range decl.EndToEnd {
				if v := r.metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			if v := r.metrics["opt_ratio"].Value; v < 1 {
				t.Errorf("opt_ratio %v below 1", v)
			}
		})
	}
}

// TestTracedRun checks that a traced run reports exactly the declared
// per-layer metrics, each with its declared unit.
func TestTracedRun(t *testing.T) {
	decl := declared(t)
	for _, w := range decl.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r := smallRun(t, w.Name, true)
			if r.failed != 0 {
				t.Fatalf("failed %d: %v", r.failed, r.problems)
			}
			if got, want := keys(r.metrics), names(decl.PerLayer); !reflect.DeepEqual(got, want) {
				t.Fatalf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for _, m := range decl.PerLayer {
				if u := r.metrics[m.Name].Unit; u != m.Unit {
					t.Errorf("%s unit %q, declared %q", m.Name, u, m.Unit)
				}
			}
			for _, name := range []string{"core.rounds", "strategy.round_ns_per_req", "offline.hk_ns_per_req", "bench.unattributed_frac"} {
				if r.metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, r.metrics[name].Value)
				}
			}
		})
	}
}

// TestServeGateCatchesMismatch feeds the serve gate a drained server's
// metrics with one fulfillment too many; the gate must count a failure.
func TestServeGateCatchesMismatch(t *testing.T) {
	w := burstyServe(heldOutSeed, 60).chunk(0)
	var out outcome
	p, _, err := w.pass(true, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("clean pass failed: %v", out.problems)
	}
	m := serve.Metrics{Fulfilled: p.q.Fulfilled + 1}
	m.Rolling.Opt = p.q.Opt
	m.Latency.Mean = p.q.WaitMean
	var bad outcome
	if err := w.gate(m, &bad); err != nil {
		t.Fatal(err)
	}
	if bad.failed == 0 {
		t.Fatal("gate accepted a wrong fulfilled count")
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func declared(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(ms []declaredMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}
