package reqsched_test

import (
	"bytes"
	"fmt"
	"testing"

	"reqsched"
)

func TestFacadeEndToEnd(t *testing.T) {
	tr := reqsched.Uniform(reqsched.WorkloadConfig{N: 6, D: 3, Rounds: 40, Rate: 7, Seed: 1})
	opt := reqsched.Optimum(tr)
	for name, s := range reqsched.Strategies() {
		res := reqsched.Run(s, tr)
		if err := reqsched.ValidateLog(tr, res.Log); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Fulfilled > opt {
			t.Fatalf("%s beats OPT", name)
		}
	}
	if len(reqsched.GlobalStrategies()) != 5 {
		t.Fatal("Table 1 has five global strategies")
	}
	if reqsched.StrategyByName("A_local_eager") == nil || reqsched.StrategyByName("nope") != nil {
		t.Fatal("StrategyByName broken")
	}
}

func TestFacadeOptimumScheduleValid(t *testing.T) {
	tr := reqsched.Zipf(reqsched.WorkloadConfig{N: 5, D: 3, Rounds: 20, Rate: 6, Seed: 2}, 1.5)
	log := reqsched.OptimumSchedule(tr)
	if err := reqsched.ValidateLog(tr, log); err != nil {
		t.Fatal(err)
	}
	if len(log) != reqsched.Optimum(tr) {
		t.Fatal("schedule size != optimum")
	}
}

func TestFacadeAdversariesCarryBounds(t *testing.T) {
	cases := []reqsched.Construction{
		reqsched.AdversaryFix(4, 5),
		reqsched.AdversaryCurrent(4, 2),
		reqsched.AdversaryFixBalance(4, 5),
		reqsched.AdversaryEager(4, 5),
		reqsched.AdversaryBalance(2, 4, 5),
		reqsched.AdversaryUniversal(6, 3),
		reqsched.AdversaryLocalFix(3, 5),
		reqsched.AdversaryEDF(3, 5),
	}
	for _, c := range cases {
		if c.Bound < 1 {
			t.Fatalf("%s: bound %f", c.Name, c.Bound)
		}
		if c.Trace == nil && c.Source == nil {
			t.Fatalf("%s: no input", c.Name)
		}
	}
	m := reqsched.MeasureConstruction(reqsched.AdversaryFix(4, 20), reqsched.NewAFix())
	if m.Ratio() <= 1.5 || m.Ratio() > 1.75 {
		t.Fatalf("fix adversary ratio %f out of band", m.Ratio())
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	tr := reqsched.SingleChoice(reqsched.WorkloadConfig{N: 3, D: 4, Rounds: 15, Rate: 4, Seed: 3})
	var buf bytes.Buffer
	if err := reqsched.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := reqsched.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRequests() != tr.NumRequests() {
		t.Fatal("round trip lost requests")
	}
	if reqsched.SummarizeTrace(got).Requests != tr.NumRequests() {
		t.Fatal("summary mismatch")
	}
}

func TestFacadeBuilderAndCChoice(t *testing.T) {
	b := reqsched.NewBuilder(4, 2)
	b.Add(0, 0, 1)
	b.AddWindow(1, 1, 2)
	tr := b.Build()
	if tr.NumRequests() != 2 {
		t.Fatal("builder lost requests")
	}
	c3 := reqsched.CChoice(reqsched.WorkloadConfig{N: 5, D: 2, Rounds: 10, Rate: 5, Seed: 4}, 3)
	res := reqsched.Run(reqsched.NewEDF(), c3)
	if err := reqsched.ValidateLog(c3, res.Log); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFullSurface(t *testing.T) {
	// Touch every exported wrapper once — the API contract test.
	cfg := reqsched.WorkloadConfig{N: 6, D: 3, Rounds: 10, Rate: 5, Seed: 1}
	traces := []*reqsched.Trace{
		reqsched.Uniform(cfg),
		reqsched.Zipf(cfg, 1.5),
		reqsched.Bursty(cfg, 2, 3, 12),
		reqsched.VideoServer(cfg, 20, 1.3),
		reqsched.SingleChoice(cfg),
		reqsched.CChoice(cfg, 3),
		reqsched.MixedDeadlines(cfg),
	}
	for i, tr := range traces {
		if tr.NumRequests() == 0 {
			t.Fatalf("generator %d empty", i)
		}
	}
	tr := traces[0]
	if reqsched.ShuffleAlts(tr, 1).NumRequests() != tr.NumRequests() {
		t.Fatal("ShuffleAlts")
	}
	if reqsched.ShuffleArrivalOrder(tr, 1).NumRequests() != tr.NumRequests() {
		t.Fatal("ShuffleArrivalOrder")
	}

	for _, s := range []reqsched.Strategy{
		reqsched.NewAFix(), reqsched.NewACurrent(), reqsched.NewAFixBalance(),
		reqsched.NewAEager(), reqsched.NewABalance(), reqsched.NewEDF(),
		reqsched.NewEDFCoordinated(), reqsched.NewFirstFit(),
		reqsched.NewRandomFit(1), reqsched.NewRanking(1),
		reqsched.NewALocalFix(), reqsched.NewALocalEager(), reqsched.NewALocalEagerWide(),
	} {
		res := reqsched.Run(s, tr)
		if err := reqsched.ValidateLog(tr, res.Log); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}

	m, err := reqsched.MeasureChecked(reqsched.NewABalance(), tr)
	if err != nil || m.OPT < m.ALG {
		t.Fatalf("MeasureChecked: %+v, %v", m, err)
	}
	res, series := reqsched.RunWithSeries(reqsched.NewABalance(), tr)
	if len(series.Rounds) == 0 {
		t.Fatal("series empty")
	}
	orders := reqsched.AugmentingOrders(tr, res.Log)
	total := 0
	for _, v := range orders {
		total += v
	}
	if total != reqsched.Optimum(tr)-res.Fulfilled {
		t.Fatal("AugmentingOrders total mismatch")
	}
	if reqsched.RenderGrid(tr, res.Log, 0, -1) == "" {
		t.Fatal("RenderGrid empty")
	}
	if reqsched.RenderArrivals(tr, 0, -1) == "" {
		t.Fatal("RenderArrivals empty")
	}
	if reqsched.RenderLosses(tr, res.Log) == "" {
		t.Fatal("RenderLosses empty")
	}
	if reqsched.RenderDiff(tr, res.Log, res.Log) == "" {
		t.Fatal("RenderDiff empty")
	}
	if b := reqsched.AdversaryCurrentBound(5); b < 1.4 || b > 1.6 {
		t.Fatalf("AdversaryCurrentBound %f", b)
	}
	if c := reqsched.AdversaryUniversalAnyD(5, 2); c.Source == nil {
		t.Fatal("AdversaryUniversalAnyD")
	}
	jobs := []reqsched.MeasureJob{{
		Build:    func() reqsched.Construction { return reqsched.AdversaryFix(2, 5) },
		Strategy: reqsched.NewAFix,
	}}
	if out, err := reqsched.MeasureParallelChecked(jobs, 2); err != nil || len(out) != 1 || out[0].OPT == 0 {
		t.Fatalf("MeasureParallelChecked: %v", err)
	}
	if reqsched.SummarizeTrace(tr).Requests != tr.NumRequests() {
		t.Fatal("SummarizeTrace")
	}
	if log := reqsched.OptimumSchedule(tr); len(log) != reqsched.Optimum(tr) {
		t.Fatal("OptimumSchedule")
	}
}

func ExampleRun() {
	b := reqsched.NewBuilder(2, 2) // two disks, two-round deadline window
	b.Add(0, 0, 1)                 // round 0: a request for disks {0, 1}
	b.Add(0, 1, 0)
	b.Add(0, 0, 1)
	tr := b.Build()
	res := reqsched.Run(reqsched.NewABalance(), tr)
	fmt.Printf("served %d of %d (optimum %d)\n",
		res.Fulfilled, tr.NumRequests(), reqsched.Optimum(tr))
	// Output: served 3 of 3 (optimum 3)
}

func ExampleMeasureConstruction() {
	// Run A_fix on the Theorem 2.1 adversary: the ratio approaches 2 - 1/d.
	c := reqsched.AdversaryFix(4, 100)
	m := reqsched.MeasureConstruction(c, reqsched.NewAFix())
	fmt.Printf("measured %.2f, proven bound %.2f\n", m.Ratio(), c.Bound)
	// Output: measured 1.74, proven bound 1.75
}

func ExampleAugmentingOrders() {
	// One slot, one round, two one-shot requests: one must be lost, and it
	// sits on an augmenting path of order 1 against the optimum (EDF-style
	// strategies cannot lose it, but the optimum cannot save both either).
	b := reqsched.NewBuilder(1, 1)
	b.Add(0, 0)
	b.Add(0, 0)
	tr := b.Build()
	res := reqsched.Run(reqsched.NewAFix(), tr)
	fmt.Println(len(reqsched.AugmentingOrders(tr, res.Log)))
	// Output: 0
}
