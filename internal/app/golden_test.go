package app

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary double as a gridworker subprocess: the
// sharded-sweep tests spawn os.Args[0] with this variable set, so the
// supervisor path runs end to end without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("APP_TEST_GRIDWORKER") == "1" {
		os.Exit(GridworkerMain(nil, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type mainFunc func(args []string, stdout, stderr io.Writer) int

// run executes a Main in-process and returns its stdout, failing the test on
// a non-zero exit.
func run(t *testing.T, main mainFunc, args ...string) string {
	t.Helper()
	out, code := runCode(t, main, args...)
	if code != 0 {
		t.Fatalf("%v: exit %d", args, code)
	}
	return out
}

func runCode(t *testing.T, main mainFunc, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := main(args, &out, &errb)
	if code != 0 && errb.Len() > 0 {
		t.Logf("%v stderr: %s", args, errb.String())
	}
	return out.String(), code
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func requireGolden(t *testing.T, name, got string, args ...string) {
	t.Helper()
	if want := golden(t, name); got != want {
		t.Errorf("%v: output differs from golden %s (%d vs %d bytes)", args, name, len(got), len(want))
	}
}

// workerCounts pins the outputs byte-identical for serial, small-pool, and
// wider-pool execution — the acceptance matrix of the refactor.
var workerCounts = []string{"1", "2", "4"}

func TestSweepGolden(t *testing.T) {
	for _, mode := range []string{"d", "l", "load"} {
		for _, w := range workerCounts {
			args := []string{"-mode", mode, "-workers", w}
			got := run(t, SweepMain, args...)
			requireGolden(t, "sweep_"+mode+".csv", got, args...)
		}
	}
}

func TestSweepJournalGolden(t *testing.T) {
	// The journaled engine must print the same CSV as the plain pool, and a
	// resumed run must reproduce it bit-identically from checkpoints.
	for _, mode := range []string{"d", "l", "load"} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		args := []string{"-mode", mode, "-workers", "2", "-journal", path}
		got := run(t, SweepMain, args...)
		requireGolden(t, "sweep_"+mode+".csv", got, args...)

		args = append(args, "-resume")
		got = run(t, SweepMain, args...)
		requireGolden(t, "sweep_"+mode+".csv", got, args...)
	}
}

func TestSweepShardGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: spawns subprocesses")
	}
	// The subprocess supervisor path: the test binary re-execs itself as the
	// gridworker (see TestMain) and the CSV stays byte-identical.
	t.Setenv("APP_TEST_GRIDWORKER", "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"d", "l", "load"} {
		args := []string{"-mode", mode, "-shard", "2", "-worker-cmd", exe}
		got := run(t, SweepMain, args...)
		requireGolden(t, "sweep_"+mode+".csv", got, args...)
	}
}

func TestTable1Golden(t *testing.T) {
	for _, w := range workerCounts {
		requireGolden(t, "table1.txt", run(t, Table1Main, "-workers", w), "-workers", w)
	}
	requireGolden(t, "table1_local.txt", run(t, Table1Main, "-local", "-phases", "8"))
	requireGolden(t, "table1_small.txt", run(t, Table1Main, "-phases", "8", "-groups", "8"))
}

func TestSchedsimGolden(t *testing.T) {
	for _, w := range workerCounts {
		requireGolden(t, "schedsim.txt", run(t, SchedsimMain, "-workers", w), "-workers", w)
	}
	requireGolden(t, "schedsim_series.txt", run(t, SchedsimMain, "-series"))
	requireGolden(t, "schedsim_eager.txt", run(t, SchedsimMain, "-strategy", "A_eager"))
	requireGolden(t, "schedsim_seeds.txt", run(t, SchedsimMain, "-seeds", "3", "-strategy", "A_balance"))
}

// suitePath is the checked-in schedsim -config suite.
var suitePath = filepath.Join("testdata", "suite.json")

func TestSchedsimConfigGolden(t *testing.T) {
	for _, w := range workerCounts {
		requireGolden(t, "schedsim_config.txt", run(t, SchedsimMain, "-config", suitePath, "-workers", w), "-workers", w)
	}
}

// TestSchedsimConfigMatchesFlags pins -config to the -seeds run its fields
// spell: the checked-in suite prints the header of the equivalent flag run
// followed by each listed strategy's line, and a suite without strategies
// prints what the flags print for every listed strategy.
func TestSchedsimConfigMatchesFlags(t *testing.T) {
	flags := []string{"-workload", "zipf", "-n", "6", "-d", "3", "-rounds", "40", "-rate", "7", "-zipf", "1.5", "-seeds", "4"}
	var want strings.Builder
	for i, s := range []string{"A_balance", "A_fix", "EDF", "A_local_eager", "compose,router=greedy,order=sjf"} {
		out := run(t, SchedsimMain, append(flags, "-strategy", s)...)
		header, line, ok := strings.Cut(out, "\n\n")
		if !ok {
			t.Fatalf("-strategy %s: no header in %q", s, out)
		}
		if i == 0 {
			want.WriteString(header + "\n\n")
		}
		want.WriteString(line)
	}
	if got := run(t, SchedsimMain, "-config", suitePath); got != want.String() {
		t.Errorf("-config output differs from the flag runs:\n got %q\nwant %q", got, want.String())
	}

	path := filepath.Join(t.TempDir(), "all.json")
	if err := os.WriteFile(path, []byte(`{"workload": {"kind": "uniform", "n": 4, "d": 2, "rounds": 10}, "seeds": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got := run(t, SchedsimMain, "-config", path)
	if want := run(t, SchedsimMain, "-workload", "uniform", "-n", "4", "-d", "2", "-rounds", "10", "-seeds", "2"); got != want {
		t.Errorf("suite without strategies differs from the flag run:\n got %q\nwant %q", got, want)
	}
	if n := strings.Count(got, " over 2 seeds: "); n < 10 {
		t.Errorf("suite without strategies ran %d strategies, want every listed one:\n%s", n, got)
	}
}

// TestSchedsimConfigRejectsBadConfigs feeds -config broken suites: each must
// exit non-zero with a one-line error and print nothing on stdout.
func TestSchedsimConfigRejectsBadConfigs(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{bad json`,
		"unknown kind":     `{"workload": {"kind": "nope", "n": 2, "d": 2, "rounds": 5}}`,
		"n 0":              `{"workload": {"kind": "uniform", "n": 0, "d": 2, "rounds": 5}}`,
		"unknown strategy": `{"workload": {"kind": "uniform", "n": 2, "d": 2, "rounds": 5}, "strategies": ["bogus"]}`,
		"c > n":            `{"workload": {"kind": "cchoice", "n": 2, "d": 2, "rounds": 5, "c": 5}}`,
		"unknown field":    `{"workload": {"kind": "uniform", "n": 2, "d": 2, "rounds": 5}, "typo": 1}`,
	}
	dir := t.TempDir()
	for name, js := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		code := SchedsimMain([]string{"-config", path}, &out, &errb)
		if code == 0 || out.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q; want a non-zero exit and no output", name, code, out.String())
		}
		if msg := errb.String(); strings.Count(msg, "\n") != 1 || !strings.HasSuffix(msg, "\n") {
			t.Errorf("%s: stderr %q is not one line", name, msg)
		}
	}
}

// TestSchedsimRejectsUnsupportedModel: a strategy named explicitly that
// cannot run the workload's service model is a usage error on every schedsim
// path (exit 2, one stderr line, no stdout), and the default strategy list
// leaves it out.
func TestSchedsimRejectsUnsupportedModel(t *testing.T) {
	reusable := []string{"-workload", "reusable", "-hold", "2", "-cap", "2", "-rounds", "20"}
	suite := filepath.Join(t.TempDir(), "suite.json")
	js := `{"workload": {"kind": "reusable", "n": 8, "d": 4, "rounds": 20, "hold": 2, "cap": 2}, "strategies": ["A_balance"], "seeds": 2}`
	if err := os.WriteFile(suite, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		append(reusable[:len(reusable):len(reusable)], "-strategy", "A_balance"),
		append(reusable[:len(reusable):len(reusable)], "-strategy", "A_balance", "-seeds", "3"),
		append(reusable[:len(reusable):len(reusable)], "-series"),
		{"-config", suite},
	} {
		var out, errb bytes.Buffer
		code := SchedsimMain(args, &out, &errb)
		msg := errb.String()
		if code != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "hold=1 only") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line naming the model", args, code, out.String(), msg)
		}
	}
	for _, extra := range [][]string{nil, {"-seeds", "2"}} {
		out := run(t, SchedsimMain, append(reusable[:len(reusable):len(reusable)], extra...)...)
		if strings.Contains(out, "A_balance") || !strings.Contains(out, "first_fit") {
			t.Errorf("default list under hold=2,cap=2 %v:\n%s", extra, out)
		}
	}
}

// TestTracegenRejectsUnsupportedModel: a valid trace under a service model
// the strategy cannot serve is a usage error, as in schedsim (exit 2, one
// stderr line naming the model), not an invalid trace; a supporting strategy
// still runs it.
func TestTracegenRejectsUnsupportedModel(t *testing.T) {
	in := filepath.Join(t.TempDir(), "reusable.json")
	gen := run(t, TracegenMain, "gen", "-workload", "reusable", "-hold", "2", "-cap", "2", "-rounds", "20")
	if err := os.WriteFile(in, []byte(gen), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"run", "show"} {
		var out, errb bytes.Buffer
		code := TracegenMain([]string{sub, "-in", in, "-strategy", "A_balance"}, &out, &errb)
		msg := errb.String()
		if code != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 ||
			!strings.Contains(msg, "hold=1 only") || strings.Contains(msg, "invalid trace") {
			t.Errorf("tracegen %s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming the model", sub, code, out.String(), msg)
		}
		if out := run(t, TracegenMain, sub, "-in", in, "-strategy", "first_fit"); out == "" {
			t.Errorf("tracegen %s -strategy first_fit printed nothing", sub)
		}
	}
}

func TestPaperGolden(t *testing.T) {
	for _, w := range workerCounts {
		requireGolden(t, "paper_quick.txt", run(t, PaperMain, "-quick", "-workers", w), "-workers", w)
	}
}

func TestLowerboundsGolden(t *testing.T) {
	requireGolden(t, "lowerbounds.csv", run(t, LowerboundsMain, "-csv"))
}

func TestTracegenGolden(t *testing.T) {
	gen := run(t, TracegenMain, "gen", "-workload", "zipf", "-n", "6", "-d", "3", "-rounds", "40", "-seed", "3")
	requireGolden(t, "tracegen_zipf.json", gen)

	in := filepath.Join("testdata", "golden", "tracegen_zipf.json")
	requireGolden(t, "tracegen_info.txt", run(t, TracegenMain, "info", "-in", in))
	requireGolden(t, "tracegen_run.txt", run(t, TracegenMain, "run", "-in", in, "-strategy", "A_balance"))
}

func TestListDescribeEveryBinary(t *testing.T) {
	mains := map[string]mainFunc{
		"sweep": SweepMain, "paper": PaperMain, "schedsim": SchedsimMain,
		"table1": Table1Main, "lowerbounds": LowerboundsMain,
		"verify": VerifyMain, "tracegen": TracegenMain, "gridworker": GridworkerMain,
		"serve": ServeMain,
	}
	var want string
	for name, main := range mains {
		list := run(t, main, "-list")
		if want == "" {
			want = list
		}
		if list != want {
			t.Errorf("%s -list differs from the shared registry listing", name)
		}
		if !strings.Contains(list, "A_balance") || !strings.Contains(list, "universal") ||
			!strings.Contains(list, "uniform") || !strings.Contains(list, "cardinality") {
			t.Errorf("%s -list is missing a registry kind:\n%s", name, list)
		}
		desc := run(t, main, "-describe", "balance")
		if !strings.Contains(desc, "x") || !strings.Contains(desc, "k") {
			t.Errorf("%s -describe balance lacks the schema:\n%s", name, desc)
		}
		if _, code := runCode(t, main, "-describe", "no_such_component"); code != 2 {
			t.Errorf("%s -describe unknown: exit %d, want 2", name, code)
		}
	}
}

func TestSweepUsageErrors(t *testing.T) {
	if _, code := runCode(t, SweepMain, "-resume"); code != 2 {
		t.Errorf("-resume without -journal: exit %d, want 2", code)
	}
	if _, code := runCode(t, SweepMain, "-mode", "bogus"); code != 2 {
		t.Errorf("unknown mode: exit %d, want 2", code)
	}
	if _, code := runCode(t, SchedsimMain, "-workload", "bogus"); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if _, code := runCode(t, TracegenMain, "gen", "-workload", "zipf", "-params", "s=0.5"); code != 2 {
		t.Errorf("out-of-range zipf exponent: exit %d, want 2", code)
	}
}
