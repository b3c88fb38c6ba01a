package app

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"reqsched"
	"reqsched/internal/core"
	"reqsched/internal/grid"
	"reqsched/internal/grid/chaos"
	"reqsched/internal/offline"
)

type verifyCheck struct {
	name string
	ok   bool
	info string
}

// VerifyMain is the main program of cmd/verify: it runs the reproduction's
// headline checks in one shot — a CI-style gate. It measures every Table 1
// row's adversary in parallel, checks proven bounds on both sides,
// re-validates the structural augmenting-path claims of the upper-bound
// proofs, cross-checks the segmented parallel offline optimum against the
// monolithic solver, exercises the fault-tolerant grid (journal resume,
// torn-tail truncation, and a chaos-killed worker subprocess), and exits
// non-zero on any violation. With -tools it additionally shells out to
// `go vet ./...` and the race-detector tests of the concurrent packages.
func VerifyMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("verify", stderr)
	workers := workersFlag(fs)
	tools := fs.Bool("tools", false, "also run `go vet ./...` and `go test -race` on the concurrent packages")
	gridworker := fs.Bool("gridworker", false, "internal: speak the gridworker protocol on stdin/stdout (used by the grid checks to re-exec this binary)")
	list, describe := listingFlags(fs)
	if ok, code := parse(fs, args); !ok {
		return code
	}
	w := resolveWorkers(*workers)
	if handled, code := listing(*list, *describe, w, stdout, stderr); handled {
		return code
	}

	if *gridworker {
		return gridworkerRun(stderr, 2*time.Second)
	}

	var checks []verifyCheck
	add := func(name string, ok bool, format string, args ...interface{}) {
		checks = append(checks, verifyCheck{name, ok, fmt.Sprintf(format, args...)})
	}

	// 1. Every Table 1 row: measured within (LB - tolerance, UB].
	type row struct {
		name     string
		build    func() reqsched.Construction
		strategy func() reqsched.Strategy
		lb, ub   float64
	}
	rows := []row{
		{"A_fix d=4", func() reqsched.Construction { return reqsched.AdversaryFix(4, 120) },
			reqsched.NewAFix, 1.75, 1.75},
		{"A_current d=2", func() reqsched.Construction { return reqsched.AdversaryEager(2, 120) },
			reqsched.NewACurrent, 4.0 / 3, 1.5},
		{"A_current l=5", func() reqsched.Construction { return reqsched.AdversaryCurrent(5, 5) },
			reqsched.NewACurrent, reqsched.AdversaryCurrentBound(5), 2 - 1.0/60},
		{"A_fix_balance d=8", func() reqsched.Construction { return reqsched.AdversaryFixBalance(8, 120) },
			reqsched.NewAFixBalance, 24.0 / 18, 1.75},
		{"A_eager d=4", func() reqsched.Construction { return reqsched.AdversaryEager(4, 120) },
			reqsched.NewAEager, 4.0 / 3, 10.0 / 7},
		{"A_balance x=2 k=64", func() reqsched.Construction { return reqsched.AdversaryBalance(2, 64, 60) },
			reqsched.NewABalance, 27.0 / 21, 24.0 / 17},
		{"universal vs A_balance", func() reqsched.Construction { return reqsched.AdversaryUniversal(6, 40) },
			reqsched.NewABalance, 45.0 / 41, 30.0 / 21},
		{"A_local_fix d=4", func() reqsched.Construction { return reqsched.AdversaryLocalFix(4, 120) },
			reqsched.NewALocalFix, 2, 2},
		{"EDF worst d=4", func() reqsched.Construction { return reqsched.AdversaryEDF(4, 120) },
			reqsched.NewEDF, 2, 2},
	}
	jobs := make([]reqsched.MeasureJob, len(rows))
	for i, r := range rows {
		jobs[i] = reqsched.MeasureJob{Name: r.name, Build: r.build, Strategy: r.strategy}
	}
	results, err := reqsched.MeasureParallelChecked(jobs, w)
	if err != nil {
		add("bounds: measurement pool", false, "%v", err)
	}
	for i, m := range results {
		r := rows[i]
		got := m.Ratio()
		ok := got <= r.ub+1e-9 && got >= r.lb-0.02
		add("bounds: "+r.name, ok, "measured %.4f, proven LB %.4f, UB %.4f", got, r.lb, r.ub)
	}

	// 2. Structural proof claims on a stress workload, in name order so the
	// report is byte-identical across runs.
	tr := reqsched.Uniform(reqsched.WorkloadConfig{N: 6, D: 4, Rounds: 60, Rate: 10, Seed: 99})
	opt := reqsched.Optimum(tr)
	strategies := reqsched.Strategies()
	names := make([]string, 0, len(strategies))
	for name := range strategies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := reqsched.Run(strategies[name], tr)
		err := reqsched.ValidateLog(tr, res.Log)
		add("valid schedule: "+name, err == nil && res.Fulfilled <= opt,
			"served %d of %d (OPT %d), err=%v", res.Fulfilled, tr.NumRequests(), opt, err)
	}

	// 3. Observation 3.1: EDF optimal for single-choice.
	single := reqsched.SingleChoice(reqsched.WorkloadConfig{N: 4, D: 4, Rounds: 50, Rate: 6, Seed: 5})
	edf := reqsched.Run(reqsched.NewEDF(), single)
	add("EDF single-choice optimal", edf.Fulfilled == reqsched.Optimum(single),
		"EDF %d vs OPT %d", edf.Fulfilled, reqsched.Optimum(single))

	// 4. The offline optimum — the incremental pass, one augmenting-path
	// search per request sealed at clean segment cuts, which the serve
	// daemon's rolling ratio also runs — agrees with Kuhn's search over the
	// full, uncut graph on every oblivious Table 1 adversary trace and a
	// batch of random workloads. (Adaptive constructions have no fixed trace;
	// the offline package's property tests cover their materialized runs.)
	for _, r := range rows {
		tr := r.build().Trace
		if tr == nil {
			continue
		}
		got := reqsched.Optimum(tr)
		_, want := offline.OptimumMatching(tr)
		add("OPT: "+r.name, got == want,
			"incremental %d vs Kuhn %d (%d segments)", got, want, reqsched.TraceSegmentCount(tr))
	}
	rng := rand.New(rand.NewSource(424242))
	mismatches, trials := 0, 40
	for i := 0; i < trials; i++ {
		cfg := reqsched.WorkloadConfig{
			N: 2 + rng.Intn(8), D: 1 + rng.Intn(5), Rounds: 20 + rng.Intn(60),
			Rate: rng.Float64() * 12, Seed: rng.Int63(),
		}
		var tr *reqsched.Trace
		if i%2 == 0 {
			tr = reqsched.Uniform(cfg)
		} else {
			r := cfg.Rate
			cfg.Rate = 0
			tr = reqsched.Bursty(cfg, 3, 2+rng.Intn(6), r)
		}
		if _, want := offline.OptimumMatching(tr); reqsched.Optimum(tr) != want {
			mismatches++
		}
	}
	add("OPT: random traces", mismatches == 0,
		"%d/%d random workloads mismatched", mismatches, trials)

	// 4b. The weighted segmented solvers agree with their monolithic
	// counterparts: identical max profit and identical minimum latency on
	// weighted variants of the oblivious adversary traces and a batch of
	// random weighted workloads. The monolithic weighted solvers are
	// superquadratic, so the largest row trace (A_balance k=64, ~35k
	// requests) is skipped here; the offline package's property tests and
	// BenchmarkSolve cover the weighted solvers at scale.
	for _, r := range rows {
		tr := r.build().Trace
		if tr == nil || tr.NumRequests() > 5000 {
			continue
		}
		wtr := reqsched.WithWeights(tr, 8, 77)
		wantP := offline.MaxProfit(wtr)
		gotP, _ := reqsched.Solve(wtr, reqsched.Profit, w)
		add("segmented profit: "+r.name, gotP == wantP,
			"parallel %d vs monolithic %d", gotP, wantP)
		_, wantL := offline.OptimumMinLatency(wtr)
		gotL, logP := reqsched.Solve(wtr, reqsched.MinLatency, w)
		add("segmented min latency: "+r.name,
			gotL == wantL && reqsched.ValidateLog(wtr, logP) == nil,
			"parallel %d vs monolithic %d (schedule of %d valid=%v)",
			gotL, wantL, len(logP), reqsched.ValidateLog(wtr, logP) == nil)
	}
	wMismatches, wTrials := 0, 25
	for i := 0; i < wTrials; i++ {
		cfg := reqsched.WorkloadConfig{
			N: 2 + rng.Intn(6), D: 1 + rng.Intn(4), Rounds: 15 + rng.Intn(40),
			Rate: rng.Float64() * 8, Seed: rng.Int63(),
		}
		var tr *reqsched.Trace
		if i%2 == 0 {
			tr = reqsched.Uniform(cfg)
		} else {
			r := cfg.Rate
			cfg.Rate = 0
			tr = reqsched.Bursty(cfg, 3, 2+rng.Intn(5), r)
		}
		wtr := reqsched.WithWeights(tr, 1+rng.Intn(9), rng.Int63())
		_, wantL := offline.OptimumMinLatency(wtr)
		gotL, _ := reqsched.Solve(wtr, reqsched.MinLatency, w)
		gotP, _ := reqsched.Solve(wtr, reqsched.Profit, w)
		if gotP != offline.MaxProfit(wtr) || gotL != wantL {
			wMismatches++
		}
	}
	add("segmented weighted: random traces", wMismatches == 0,
		"%d/%d random weighted workloads mismatched", wMismatches, wTrials)

	// 4c. The streamed adaptive pipeline reproduces the reference solver on
	// the Theorem 2.6 adversary: the monolithic optimum of the trace the
	// materialized run generates.
	resAd, trAd := core.RunAdaptive(reqsched.NewABalance(), reqsched.AdversaryUniversal(6, 40).Source)
	optAd := reqsched.Optimum(trAd)
	gotAd, nsegs := reqsched.MeasureAdaptiveStream(reqsched.NewABalance(), reqsched.AdversaryUniversal(6, 40).Source)
	add("adaptive stream OPT", gotAd.OPT == optAd && gotAd.ALG == resAd.Fulfilled,
		"stream OPT/ALG %d/%d vs post-hoc %d/%d (%d segments)",
		gotAd.OPT, gotAd.ALG, optAd, resAd.Fulfilled, nsegs)

	// 4d. Serve mode: the live daemon under the virtual clock reproduces the
	// batch engine and the offline ratio pipeline bit for bit on the same
	// stream.
	serveChecks(add, w)

	// 4e. Policy decomposition: the SJF queue order relieves head-of-line
	// blocking in the pinned experiment.
	composeChecks(add)

	// 4f. Reusable resources: hold_squeeze forces the greedy router to
	// exactly the factor-2 charging bound, and the incremental optimum agrees
	// with Kuhn's under hold x cap service-model grids.
	modelChecks(add, w)

	// 5. Fault-tolerant grid: deterministic manifests, journal resume with
	// torn-tail truncation, and a chaos-killed worker subprocess — the
	// machinery behind cmd/sweep -shard/-journal/-resume.
	gridChecks(add, w)

	// 5a. Network grid: the TCP transport behind `sweep -workers-at` —
	// bit-identical to the plain run, clean journals under an injected link
	// fault, and crash-consistent resume after a supervisor kill mid-protocol.
	gridTCPChecks(add, w)

	// 6. Optional toolchain gates.
	if *tools {
		cmds := [][]string{
			{"go", "vet", "./..."},
			{"go", "test", "-race", "./internal/offline", "./internal/ratio", "./internal/runner", "./internal/grid", "./internal/serve", "./internal/policy", "./internal/matching", "./internal/core", "./internal/trace"},
		}
		for _, args := range cmds {
			cmd := exec.Command(args[0], args[1:]...)
			out, err := cmd.CombinedOutput()
			info := "ok"
			if err != nil {
				info = fmt.Sprintf("%v\n%s", err, out)
			}
			add("tool: "+strings.Join(args, " "), err == nil, "%s", info)
		}
	}

	// Report.
	failures := 0
	for _, c := range checks {
		status := "PASS"
		if !c.ok {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(stdout, "%-4s %-38s %s\n", status, c.name, c.info)
	}
	fmt.Fprintf(stdout, "\n%d checks, %d failures\n", len(checks), failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// composeChecks pins the payoff of the Router x QueueOrder x Admission x
// Priority decomposition: on the head-of-line-blocking workload the SJF
// order rescues tight-window requests that FCFS starves, at no throughput
// cost. (The paper strategies are themselves canonical compositions, so
// every other check runs through the composite too.)
func composeChecks(add func(name string, ok bool, format string, args ...interface{})) {
	mixed := reqsched.MixedDeadlines(reqsched.WorkloadConfig{N: 4, D: 6, Rounds: 120, Rate: 6, Seed: 7})
	tight := func(res *reqsched.Result) int {
		c := 0
		for _, f := range res.Log {
			if f.Req.D <= 2 {
				c++
			}
		}
		return c
	}
	fcfs := reqsched.Run(reqsched.StrategyByName("compose,router=current,order=fcfs"), mixed)
	sjf := reqsched.Run(reqsched.StrategyByName("compose,router=current,order=sjf"), mixed)
	add("compose: SJF relieves HoL blocking",
		tight(sjf) >= 3*tight(fcfs) && sjf.Fulfilled >= fcfs.Fulfilled,
		"tight-window served: FCFS %d, SJF %d (throughput %d vs %d)",
		tight(fcfs), tight(sjf), fcfs.Fulfilled, sjf.Fulfilled)
}

// gridChecks exercises the fault-tolerant sweep grid end to end: manifest
// determinism, bit-identical measurements across the in-process, journaled,
// and subprocess paths, crash resume over a torn journal, and a chaos-killed
// worker being retried transparently.
func gridChecks(add func(name string, ok bool, format string, args ...interface{}), workers int) {
	specs := []grid.Spec{
		{Strategy: "A_fix", Build: grid.BuildSpec{Kind: "fix", D: 4, Phases: 8}},
		{Strategy: "A_eager", Build: grid.BuildSpec{Kind: "eager", D: 4, Phases: 8}},
		{Strategy: "A_current", Build: grid.BuildSpec{Kind: "current", L: 2, Phases: 2}},
		{Strategy: "EDF", Build: grid.BuildSpec{Kind: "uniform", N: 4, D: 3, Rounds: 30, Rate: 5, Seed: 3}},
	}
	names := []string{"fix/d=4", "eager/d=4", "current/l=2", "edf/uniform"}
	jobs, err := grid.BuildManifest(specs, names)
	if err != nil {
		add("grid: manifest", false, "%v", err)
		return
	}
	again, _ := grid.BuildManifest(specs, names)
	det := true
	for i := range jobs {
		det = det && jobs[i].ID == again[i].ID
	}
	add("grid: deterministic manifest IDs", det, "%d cells", len(jobs))

	want, err := reqsched.MeasureParallelChecked(grid.RatioJobs(jobs), workers)
	if err != nil {
		add("grid: reference measurements", false, "%v", err)
		return
	}
	same := func(ms []reqsched.Measurement) bool {
		if len(ms) != len(want) {
			return false
		}
		for i := range want {
			if ms[i] != want[i] {
				return false
			}
		}
		return true
	}

	dir, err := os.MkdirTemp("", "verify-grid")
	if err != nil {
		add("grid: tempdir", false, "%v", err)
		return
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// Journaled in-process run, then crash-resume over a torn prefix.
	path := filepath.Join(dir, "journal.jsonl")
	j, done, _, err := grid.OpenJournal(path, false)
	ok := err == nil
	var rep *grid.Report
	if ok {
		rep, err = grid.RunLocal(ctx, jobs, done, j, workers)
		j.Close()
		ok = err == nil && rep.AllDone() && same(rep.Measurements)
	}
	add("grid: journaled run matches plain", ok, "%d cells journaled, err=%v", len(jobs), err)

	ok = false
	var info string
	if b, rerr := os.ReadFile(path); rerr == nil {
		// Keep two intact lines plus half of the third: a crash mid-append.
		cut, lines := 0, 0
		for i, c := range b {
			if c == '\n' {
				lines++
				if lines == 2 {
					cut = i + 1
					break
				}
			}
		}
		torn := append(append([]byte{}, b[:cut]...), b[cut:cut+10]...)
		if werr := os.WriteFile(path, torn, 0o644); werr == nil {
			j, done, scan, oerr := grid.OpenJournal(path, true)
			if oerr == nil {
				rep, err = grid.RunLocal(ctx, jobs, done, j, workers)
				j.Close()
				ok = err == nil && scan.TornOffset == int64(cut) && rep.FromJournal == 2 &&
					rep.AllDone() && same(rep.Measurements)
				info = fmt.Sprintf("torn at byte %d, %d/%d cells from journal", scan.TornOffset, rep.FromJournal, len(jobs))
			} else {
				info = oerr.Error()
			}
		}
	}
	add("grid: torn-journal crash resume", ok, "%s", info)

	// Subprocess supervisor with a chaos kill on the first job: the worker
	// dies mid-cell, is respawned, and the grid still completes bit-identically.
	exe, err := os.Executable()
	if err != nil {
		add("grid: chaos-killed worker retried", false, "%v", err)
		return
	}
	rep, err = grid.Run(ctx, jobs, grid.Options{
		Workers:     2,
		WorkerCmd:   []string{exe, "-gridworker"},
		WorkerEnv:   []string{chaos.EnvSpec + "=kill:0", chaos.EnvOnce + "=" + filepath.Join(dir, "fired")},
		JobTimeout:  time.Minute,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	ok = err == nil && rep.AllDone() && rep.Retried >= 1 && same(rep.Measurements)
	retried := 0
	if rep != nil {
		retried = rep.Retried
	}
	add("grid: chaos-killed worker retried", ok, "%d retried, err=%v", retried, err)
}

// gridTCPChecks exercises the network transport end to end against
// in-process TCP gridworkers: a clean remote run matching the plain pool, a
// remote run with an injected link fault whose journal stays one verified
// record per cell, and a supervisor killed mid-protocol whose resumed journal
// is a permutation of the uninterrupted run's.
func gridTCPChecks(add func(name string, ok bool, format string, args ...interface{}), workers int) {
	specs := []grid.Spec{
		{Strategy: "A_fix", Build: grid.BuildSpec{Kind: "fix", D: 4, Phases: 8}},
		{Strategy: "A_eager", Build: grid.BuildSpec{Kind: "eager", D: 4, Phases: 8}},
		{Strategy: "A_current", Build: grid.BuildSpec{Kind: "current", L: 2, Phases: 2}},
		{Strategy: "EDF", Build: grid.BuildSpec{Kind: "uniform", N: 4, D: 3, Rounds: 30, Rate: 5, Seed: 3}},
	}
	jobs, err := grid.BuildManifest(specs, []string{"fix/d=4", "eager/d=4", "current/l=2", "edf/uniform"})
	if err != nil {
		add("grid: TCP manifest", false, "%v", err)
		return
	}
	want, err := reqsched.MeasureParallelChecked(grid.RatioJobs(jobs), workers)
	if err != nil {
		add("grid: TCP reference measurements", false, "%v", err)
		return
	}
	same := func(ms []reqsched.Measurement) bool {
		if len(ms) != len(want) {
			return false
		}
		for i := range want {
			if ms[i] != want[i] {
				return false
			}
		}
		return true
	}

	dir, err := os.MkdirTemp("", "verify-grid-tcp")
	if err != nil {
		add("grid: TCP tempdir", false, "%v", err)
		return
	}
	defer os.RemoveAll(dir)

	// Two in-process TCP gridworkers for the whole check block.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	addrs := make([]string, 2)
	for i := range addrs {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			add("grid: TCP listen", false, "%v", lerr)
			return
		}
		addrs[i] = ln.Addr().String()
		go grid.ServeWorker(wctx, ln, 20*time.Millisecond, nil, io.Discard)
	}
	tcpOpts := func(link *chaos.LinkFaults) grid.Options {
		return grid.Options{
			Transport: &grid.TCPTransport{
				Addrs: addrs, Link: link,
				BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
			},
			JobTimeout:  time.Minute,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
		}
	}
	journalRecords := func(path string) (map[string]grid.Record, error) {
		f, rerr := os.Open(path)
		if rerr != nil {
			return nil, rerr
		}
		defer f.Close()
		recs, scan, rerr := grid.ReadJournal(f)
		if rerr != nil {
			return nil, rerr
		}
		if scan.Skipped > 0 || scan.TornOffset >= 0 {
			return nil, fmt.Errorf("journal damaged: %+v", scan)
		}
		byID := make(map[string]grid.Record, len(recs))
		for _, r := range recs {
			if verr := r.Verify(); verr != nil {
				return nil, verr
			}
			byID[r.ID] = r
		}
		if len(byID) != len(recs) {
			return nil, fmt.Errorf("journal holds duplicate records (%d lines, %d cells)", len(recs), len(byID))
		}
		return byID, nil
	}

	// Clean remote run.
	rep, err := grid.Run(context.Background(), jobs, tcpOpts(nil))
	ok := err == nil && rep.AllDone() && len(rep.LostHosts) == 0 && same(rep.Measurements)
	add("grid: TCP transport matches plain", ok, "%d cells on %d workers, err=%v", len(jobs), len(addrs), err)

	// Link fault: the connection drops at protocol message 2; the grid must
	// complete with a journal of exactly one verified record per cell.
	path := filepath.Join(dir, "link.jsonl")
	j, done, _, err := grid.OpenJournal(path, false)
	ok = err == nil
	if ok {
		opts := tcpOpts(&chaos.LinkFaults{Mode: chaos.LinkDrop, Msg: 2})
		opts.Journal = j
		opts.Done = done
		rep, err = grid.Run(context.Background(), jobs, opts)
		j.Close()
		ok = err == nil && rep.AllDone() && same(rep.Measurements)
		if ok {
			byID, jerr := journalRecords(path)
			ok = jerr == nil && len(byID) == len(jobs)
			if jerr != nil {
				err = jerr
			}
		}
	}
	add("grid: TCP link fault journals clean", ok, "drop at msg 2, err=%v", err)

	// Supervisor killed mid-protocol, then resumed: the final journal must
	// hold the same records an uninterrupted run journals.
	path = filepath.Join(dir, "kill.jsonl")
	j, done, _, err = grid.OpenJournal(path, false)
	ok = err == nil
	if ok {
		ctx, cancel := context.WithCancel(context.Background())
		var msgs int64
		opts := tcpOpts(nil)
		opts.Transport.(*grid.TCPTransport).MsgHook = func(string, int) {
			if atomic.AddInt64(&msgs, 1) == 5 {
				cancel()
			}
		}
		opts.Journal = j
		opts.Done = done
		grid.Run(ctx, jobs, opts)
		j.Close()
		cancel()
		var j2 *grid.Journal
		var done2 map[string]grid.Record
		j2, done2, _, err = grid.OpenJournal(path, true)
		ok = err == nil
		if ok {
			rep, err = grid.Run(context.Background(), jobs, tcpOptsWithJournal(tcpOpts(nil), j2, done2))
			j2.Close()
			ok = err == nil && rep.AllDone() && same(rep.Measurements)
			if ok {
				byID, jerr := journalRecords(path)
				ok = jerr == nil && len(byID) == len(jobs)
				if jerr != nil {
					err = jerr
				}
			}
		}
	}
	add("grid: TCP supervisor kill + resume", ok, "killed at msg 5, err=%v", err)
}

func tcpOptsWithJournal(o grid.Options, j *grid.Journal, done map[string]grid.Record) grid.Options {
	o.Journal = j
	o.Done = done
	return o
}
