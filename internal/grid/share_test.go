package grid_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"reqsched/internal/core"
	"reqsched/internal/grid"
	"reqsched/internal/offline"
	"reqsched/internal/ratio"
	"reqsched/internal/registry"
)

// shareManifest builds a manifest of (strategy, source, params) cells, in
// the order given.
func shareManifest(t *testing.T, cells []cell) []grid.Job {
	t.Helper()
	specs := make([]grid.Spec, len(cells))
	names := make([]string, len(cells))
	for i, c := range cells {
		s, err := grid.SpecFor(c.strategy, c.source, c.params)
		if err != nil {
			t.Fatal(err)
		}
		specs[i], names[i] = s, fmt.Sprintf("%s/%s#%d", c.strategy, c.source, i)
	}
	jobs, err := grid.BuildManifest(specs, names)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// requireSharingInvisible runs the manifest on the pool with inputs shared
// and with sharing off (every Input nil), and requires equal measurements and
// equal failures from both. A manifest without failures must also come out
// the same through RunLocal, the in-process path of the runner.
func requireSharingInvisible(t *testing.T, jobs []grid.Job) {
	t.Helper()
	unshared := grid.RatioJobs(jobs)
	for i := range unshared {
		unshared[i].Input = nil
	}
	want, wantErr := ratio.RunParallelChecked(unshared, 3)

	got, gotErr := ratio.RunParallelChecked(grid.RatioJobs(jobs), 3)
	if !reflect.DeepEqual(got, want) || errString(gotErr) != errString(wantErr) {
		t.Fatalf("RunParallelChecked shared:\n got %+v (err %v)\nwant %+v (err %v)", got, gotErr, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	rep, err := grid.RunLocal(context.Background(), jobs, nil, nil, 3)
	if err != nil || !rep.AllDone() || !reflect.DeepEqual(rep.Measurements, want) {
		t.Fatalf("RunLocal shared:\n got %+v (err %v)\nwant %+v", rep.Measurements, err, want)
	}
}

type cell = struct {
	strategy, source string
	params           registry.Params
}

// TestSharedInputUniformEveryStrategy: seed-major uniform cells, each seed
// measured by every registered strategy, so each input is shared by the
// whole strategy catalog.
func TestSharedInputUniformEveryStrategy(t *testing.T) {
	var cells []cell
	for seed := int64(1); seed <= 3; seed++ {
		for _, s := range registry.Names(registry.KindStrategy) {
			cells = append(cells, cell{s, "uniform", registry.Params{
				"n": registry.IntVal(8), "d": registry.IntVal(4), "rounds": registry.IntVal(60),
				"rate": registry.FloatVal(8), "seed": registry.IntVal(seed),
			}})
		}
	}
	requireSharingInvisible(t, shareManifest(t, cells))
}

// table1Strategies are the nine strategies of Table 1.
var table1Strategies = []string{
	"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
	"EDF", "first_fit", "A_local_fix", "A_local_eager",
}

// TestSharedInputTable1Constructions: every registered adversary, adaptive
// sources included, measured by the nine Table 1 strategies. A strategy the
// construction's service model rules out fails the same way either side.
func TestSharedInputTable1Constructions(t *testing.T) {
	var cells []cell
	for _, adv := range registry.Names(registry.KindAdversary) {
		c, _ := registry.Get(registry.KindAdversary, adv)
		p := registry.Params{}
		if _, ok := c.Defaults()["phases"]; ok {
			p["phases"] = registry.IntVal(3)
		}
		for _, s := range table1Strategies {
			cells = append(cells, cell{s, adv, p})
		}
	}
	requireSharingInvisible(t, shareManifest(t, cells))
}

// TestSharedInputReusableGrid: a hold × cap grid of reusable-resource
// traffic, every strategy per input.
func TestSharedInputReusableGrid(t *testing.T) {
	var cells []cell
	for hold := 1; hold <= 3; hold++ {
		for capc := 1; capc <= 2; capc++ {
			for _, s := range registry.Names(registry.KindStrategy) {
				cells = append(cells, cell{s, "reusable", registry.Params{
					"n": registry.IntVal(6), "d": registry.IntVal(4), "rounds": registry.IntVal(60),
					"seed": registry.IntVal(5), "hold": registry.IntVal(int64(hold)), "cap": registry.IntVal(int64(capc)),
				}})
			}
		}
	}
	requireSharingInvisible(t, shareManifest(t, cells))
}

// TestSharedTraceStaysUnchanged runs every registered strategy and the
// offline optimum concurrently on one trace, as a shared input is run, and
// requires the trace to equal a
// deep copy taken before; under -race any write to it is also a data race.
func TestSharedTraceStaysUnchanged(t *testing.T) {
	c, err := grid.BuildSpec{Kind: "uniform", N: 8, D: 4, Rounds: 80, Rate: 9, Seed: 2}.Construction()
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Trace
	before := deepCopyTrace(tr)
	var wg sync.WaitGroup
	for _, name := range registry.Names(registry.KindStrategy) {
		s, err := registry.NewStrategySpec(name)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := core.RunChecked(s, tr); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		offline.Optimum(tr)
	}()
	wg.Wait()
	if !reflect.DeepEqual(tr, before) {
		t.Fatal("a strategy run modified the shared trace")
	}
}

func deepCopyTrace(tr *core.Trace) *core.Trace {
	cp := *tr
	cp.Arrivals = make([][]core.Request, len(tr.Arrivals))
	for t, row := range tr.Arrivals {
		if row == nil {
			continue
		}
		cp.Arrivals[t] = make([]core.Request, len(row))
		for i, r := range row {
			r.Alts = append([]int(nil), r.Alts...)
			cp.Arrivals[t][i] = r
		}
	}
	return &cp
}
