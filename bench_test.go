// Benchmark harness regenerating the paper's evaluation. Every Table 1 row
// has a bench that runs the row's lower-bound adversary against the row's
// strategy and reports the measured competitive ratio OPT/ALG as a custom
// metric next to the proven bound, plus throughput benches for the engine
// and the matching substrate. Run with:
//
//	go test -bench=. -benchmem
package reqsched_test

import (
	"fmt"
	"testing"

	"reqsched"
)

// benchConstruction runs one (construction, strategy) measurement per
// iteration and reports ratio metrics.
func benchConstruction(b *testing.B, build func() reqsched.Construction, mk func() reqsched.Strategy) {
	b.Helper()
	var m reqsched.Measurement
	var c reqsched.Construction
	requests := 0
	for i := 0; i < b.N; i++ {
		c = build()
		s := mk()
		m = reqsched.MeasureConstruction(c, s)
		if c.Trace != nil {
			requests = c.Trace.NumRequests()
		} else {
			requests = m.OPT // adaptive: OPT == injected on our constructions
		}
	}
	b.ReportMetric(m.Ratio(), "OPT/ALG")
	b.ReportMetric(c.Bound, "provenLB")
	b.ReportMetric(float64(requests), "requests")
}

// BenchmarkTable1 regenerates every row of Table 1 (see cmd/table1 for the
// full formatted table).
func BenchmarkTable1(b *testing.B) {
	const phases = 40

	for _, d := range []int{2, 4, 8, 16} {
		d := d
		b.Run(fmt.Sprintf("AFix/d=%d", d), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryFix(d, phases) },
				reqsched.NewAFix)
		})
	}

	b.Run("ACurrent/d=2", func(b *testing.B) {
		benchConstruction(b,
			func() reqsched.Construction { return reqsched.AdversaryEager(2, phases) },
			reqsched.NewACurrent)
	})
	for _, l := range []int{3, 4, 5, 6} {
		l := l
		b.Run(fmt.Sprintf("ACurrent/l=%d", l), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryCurrent(l, 5) },
				reqsched.NewACurrent)
		})
	}

	b.Run("AFixBalance/d=2", func(b *testing.B) {
		benchConstruction(b,
			func() reqsched.Construction { return reqsched.AdversaryEager(2, phases) },
			reqsched.NewAFixBalance)
	})
	for _, d := range []int{4, 8, 12} {
		d := d
		b.Run(fmt.Sprintf("AFixBalance/d=%d", d), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryFixBalance(d, phases) },
				reqsched.NewAFixBalance)
		})
	}

	for _, d := range []int{2, 4, 8} {
		d := d
		b.Run(fmt.Sprintf("AEager/d=%d", d), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryEager(d, phases) },
				reqsched.NewAEager)
		})
	}

	b.Run("ABalance/d=2", func(b *testing.B) {
		benchConstruction(b,
			func() reqsched.Construction { return reqsched.AdversaryEager(2, phases) },
			reqsched.NewABalance)
	})
	for _, x := range []int{1, 2, 3} {
		x := x
		b.Run(fmt.Sprintf("ABalance/x=%d", x), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryBalance(x, 32, phases) },
				reqsched.NewABalance)
		})
	}

	// Row 6: the universal adversary versus every global strategy.
	for _, mk := range []struct {
		name string
		fn   func() reqsched.Strategy
	}{
		{"A_fix", reqsched.NewAFix},
		{"A_current", reqsched.NewACurrent},
		{"A_fix_balance", reqsched.NewAFixBalance},
		{"A_eager", reqsched.NewAEager},
		{"A_balance", reqsched.NewABalance},
	} {
		mk := mk
		b.Run("Universal/vs="+mk.name, func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryUniversal(6, 20) },
				mk.fn)
		})
	}
}

// BenchmarkLocal regenerates the local-strategy results (Theorems 3.7, 3.8).
func BenchmarkLocal(b *testing.B) {
	for _, d := range []int{2, 4, 8} {
		d := d
		b.Run(fmt.Sprintf("AFixLocal/d=%d", d), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryLocalFix(d, 40) },
				reqsched.NewALocalFix)
		})
		b.Run(fmt.Sprintf("AEagerLocal/d=%d", d), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryLocalFix(d, 40) },
				reqsched.NewALocalEager)
		})
	}
	b.Run("EDFWorst/d=4", func(b *testing.B) {
		benchConstruction(b,
			func() reqsched.Construction { return reqsched.AdversaryEDF(4, 40) },
			reqsched.NewEDF)
	})
}

// BenchmarkConvergence is the Fig-B series: A_current's forced ratio versus
// l, approaching e/(e-1) ~ 1.582.
func BenchmarkConvergence(b *testing.B) {
	for _, l := range []int{2, 3, 4, 5, 6} {
		l := l
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			var m reqsched.Measurement
			for i := 0; i < b.N; i++ {
				m = reqsched.MeasureConstruction(reqsched.AdversaryCurrent(l, 5), reqsched.NewACurrent())
			}
			b.ReportMetric(m.Ratio(), "OPT/ALG")
			b.ReportMetric(reqsched.AdversaryCurrentBound(l), "analytic")
		})
	}
}

// BenchmarkSweepD is the Fig-A series: each strategy's forced ratio on its
// own adversary as d grows (the shape of the Table 1 formulas).
func BenchmarkSweepD(b *testing.B) {
	for _, d := range []int{2, 4, 8, 16, 24} {
		d := d
		b.Run(fmt.Sprintf("AFix/d=%d", d), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryFix(d, 30) },
				reqsched.NewAFix)
		})
	}
	for _, d := range []int{4, 8, 16, 24} {
		d := d
		b.Run(fmt.Sprintf("AFixBalance/d=%d", d), func(b *testing.B) {
			benchConstruction(b,
				func() reqsched.Construction { return reqsched.AdversaryFixBalance(d, 30) },
				reqsched.NewAFixBalance)
		})
	}
}

// BenchmarkEngine measures raw simulation throughput (requests scheduled per
// second) and the allocation profile of the engine hot path for every
// strategy on a shared random workload. The per-round scratch reuse in core,
// strategies, policy, commnet and local keeps allocs/op independent of the
// round count; a regression here means a fresh allocation crept back into
// the round loop. served must not move on a pure performance change.
func BenchmarkEngine(b *testing.B) {
	tr := reqsched.Uniform(reqsched.WorkloadConfig{
		N: 16, D: 6, Rounds: 300, Rate: 18, Seed: 11,
	})
	for _, name := range []string{
		"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
		"EDF", "first_fit", "A_local_fix", "A_local_eager", "A_local_eager_wide",
	} {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var served int
			for i := 0; i < b.N; i++ {
				res := reqsched.Run(reqsched.StrategyByName(name), tr)
				served = res.Fulfilled
			}
			b.ReportMetric(float64(served), "served")
			b.ReportMetric(float64(tr.NumRequests())*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
		})
	}
}

// BenchmarkEarliestDeadlineSchedule tracks the offline EDF baseline on the
// BenchmarkEngine workload: its served set is a dense bitmap, so allocs/op
// must stay flat in the round count.
func BenchmarkEarliestDeadlineSchedule(b *testing.B) {
	tr := reqsched.Uniform(reqsched.WorkloadConfig{
		N: 16, D: 6, Rounds: 300, Rate: 18, Seed: 11,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqsched.EarliestDeadlineSchedule(tr)
	}
}

// BenchmarkSolve measures the segmented offline optimum of each objective
// against its monolithic oracle on a gapped bursty workload (bursts of 4
// rounds at rate 20, then 8 silent rounds: every burst is its own segment),
// at 1, 2, 4 and 8 workers. The weighted objectives run on a smaller
// weighted trace: their monolithic min-cost-flow solvers are superlinear.
func BenchmarkSolve(b *testing.B) {
	gapped := func(rounds int) *reqsched.Trace {
		return reqsched.Bursty(reqsched.WorkloadConfig{N: 16, D: 4, Rounds: rounds, Rate: 0, Seed: 5}, 4, 8, 20)
	}
	weighted := reqsched.WithWeights(gapped(600), 8, 5)
	for _, c := range []struct {
		name       string
		obj        reqsched.Objective
		tr         *reqsched.Trace
		monolithic func(*reqsched.Trace) int
	}{
		{"cardinality", reqsched.Cardinality, gapped(2000), reqsched.Optimum},
		{"profit", reqsched.Profit, weighted, reqsched.MaxProfit},
		{"min_latency", reqsched.MinLatency, weighted, func(tr *reqsched.Trace) int {
			_, latency := reqsched.OptimumMinLatency(tr)
			return latency
		}},
	} {
		want := c.monolithic(c.tr)
		b.Run(c.name+"/monolithic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.monolithic(c.tr)
			}
		})
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				var got int
				for i := 0; i < b.N; i++ {
					got, _ = reqsched.Solve(c.tr, c.obj, workers)
				}
				if got != want {
					b.Fatalf("Solve(%s, workers=%d) = %d, monolithic %d", c.name, workers, got, want)
				}
				b.ReportMetric(float64(reqsched.TraceSegmentCount(c.tr)), "segments")
			})
		}
	}
}

// BenchmarkOptimum measures the offline solver (Hopcroft–Karp over the full
// request/slot graph).
func BenchmarkOptimum(b *testing.B) {
	for _, scale := range []struct {
		name   string
		rounds int
		rate   float64
	}{
		{"small", 100, 10},
		{"medium", 400, 15},
		{"large", 1000, 20},
	} {
		scale := scale
		b.Run(scale.name, func(b *testing.B) {
			tr := reqsched.Uniform(reqsched.WorkloadConfig{
				N: 12, D: 5, Rounds: scale.rounds, Rate: scale.rate, Seed: 3,
			})
			b.ResetTimer()
			var opt int
			for i := 0; i < b.N; i++ {
				opt = reqsched.Optimum(tr)
			}
			b.ReportMetric(float64(opt), "optimum")
			b.ReportMetric(float64(tr.NumRequests()), "requests")
		})
	}
}

// BenchmarkAblation quantifies what each adversary exploits: randomizing the
// channel it steers through (alternative listing or injection order) must
// destroy most of the forced loss, while the other channel changes nothing.
// Reported as ratio metrics per variant.
func BenchmarkAblation(b *testing.B) {
	cases := []struct {
		name  string
		trace func() *reqsched.Trace
		mk    func() reqsched.Strategy
	}{
		{"Fix/original", func() *reqsched.Trace { return reqsched.AdversaryFix(4, 40).Trace }, reqsched.NewAFix},
		{"Fix/shuffledAlts", func() *reqsched.Trace {
			return reqsched.ShuffleAlts(reqsched.AdversaryFix(4, 40).Trace, 1)
		}, reqsched.NewAFix},
		{"Eager/original", func() *reqsched.Trace { return reqsched.AdversaryEager(4, 40).Trace }, reqsched.NewAEager},
		{"Eager/shuffledOrder", func() *reqsched.Trace {
			return reqsched.ShuffleArrivalOrder(reqsched.AdversaryEager(4, 40).Trace, 1)
		}, reqsched.NewAEager},
		{"Fix/vsRanking", func() *reqsched.Trace { return reqsched.AdversaryFix(4, 40).Trace }, func() reqsched.Strategy { return reqsched.NewRanking(5) }},
		{"EDFWorst/independent", func() *reqsched.Trace { return reqsched.AdversaryEDF(4, 40).Trace }, reqsched.NewEDF},
		{"EDFWorst/coordinated", func() *reqsched.Trace { return reqsched.AdversaryEDF(4, 40).Trace }, reqsched.NewEDFCoordinated},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var m reqsched.Measurement
			for i := 0; i < b.N; i++ {
				var err error
				if m, err = reqsched.MeasureChecked(tc.mk(), tc.trace()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Ratio(), "OPT/ALG")
		})
	}
}

// BenchmarkParallelHarness compares the sequential and parallel measurement
// harness on a Table 1-sized batch.
func BenchmarkParallelHarness(b *testing.B) {
	jobs := func() []reqsched.MeasureJob {
		var out []reqsched.MeasureJob
		for _, d := range []int{2, 4, 8, 16} {
			d := d
			out = append(out, reqsched.MeasureJob{
				Build:    func() reqsched.Construction { return reqsched.AdversaryFix(d, 30) },
				Strategy: reqsched.NewAFix,
			}, reqsched.MeasureJob{
				Build:    func() reqsched.Construction { return reqsched.AdversaryEager(d, 30) },
				Strategy: reqsched.NewAEager,
			})
		}
		return out
	}()
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reqsched.MeasureParallelChecked(jobs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers=max", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reqsched.MeasureParallelChecked(jobs, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
