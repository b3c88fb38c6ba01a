package registry

import (
	"strings"
	"testing"
)

// TestRegistryCompleteness pins the catalog: every strategy, adversary,
// workload and objective of the codebase is registered under its stable
// name, so -list/-describe and the record pipeline can reach all of them.
func TestRegistryCompleteness(t *testing.T) {
	wantListed := []string{
		"A_fix", "A_current", "A_fix_balance", "A_eager", "A_balance",
		"EDF", "EDF_coordinated", "first_fit",
		"A_local_fix", "A_local_eager", "A_local_eager_wide",
	}
	wantUnlisted := []string{"A_fix_w", "A_eager_w", "random_fit", "ranking", "compose"}
	for _, name := range append(append([]string{}, wantListed...), wantUnlisted...) {
		c, ok := Get(KindStrategy, name)
		if !ok {
			t.Errorf("strategy %q not registered", name)
			continue
		}
		if c.Doc == "" {
			t.Errorf("strategy %q has no doc line", name)
		}
		s, err := NewStrategy(name, nil)
		if err != nil {
			t.Errorf("NewStrategy(%q): %v", name, err)
		} else if name != "EDF" && s.Name() != name {
			// EDF registers under its paper name; every other strategy's
			// registry name is its Name().
			t.Errorf("strategy %q constructs %q", name, s.Name())
		}
	}
	if n := len(All(KindStrategy)); n != len(wantListed)+len(wantUnlisted) {
		t.Errorf("registry has %d strategies, want %d", n, len(wantListed)+len(wantUnlisted))
	}

	listed := ListedStrategies()
	if len(listed) != len(wantListed) {
		t.Errorf("ListedStrategies has %d entries, want %d", len(listed), len(wantListed))
	}
	for _, name := range wantListed {
		if _, ok := listed[name]; !ok {
			t.Errorf("listed strategy %q missing from ListedStrategies", name)
		}
	}

	wantAdversaries := []string{
		"fix", "current", "current_factorial", "fix_balance", "eager",
		"balance", "universal", "universal_anyd", "local_fix", "edf",
		"hold_squeeze",
	}
	for _, name := range wantAdversaries {
		if _, ok := Get(KindAdversary, name); !ok {
			t.Errorf("adversary %q not registered", name)
			continue
		}
		if _, err := BuildAdversary(name, Params{"phases": IntVal(2)}); err != nil {
			t.Errorf("BuildAdversary(%q) with defaults: %v", name, err)
		}
	}
	if n := len(All(KindAdversary)); n != len(wantAdversaries) {
		t.Errorf("registry has %d adversaries, want %d", n, len(wantAdversaries))
	}

	wantWorkloads := []string{
		"uniform", "zipf", "bursty", "video", "single", "cchoice",
		"mixed", "weighted", "trapmix", "reusable",
	}
	for _, name := range wantWorkloads {
		if _, ok := Get(KindWorkload, name); !ok {
			t.Errorf("workload %q not registered", name)
			continue
		}
		tr, err := GenerateWorkload(name, Params{"rounds": IntVal(10), "rate": FloatVal(3)})
		if err != nil {
			t.Errorf("GenerateWorkload(%q) with defaults: %v", name, err)
		} else if tr == nil {
			t.Errorf("GenerateWorkload(%q) returned a nil trace", name)
		}
	}
	if n := len(All(KindWorkload)); n != len(wantWorkloads) {
		t.Errorf("registry has %d workloads, want %d", n, len(wantWorkloads))
	}

	wantObjectives := []string{"cardinality", "max_profit", "min_latency", "eds_greedy"}
	for _, name := range wantObjectives {
		if _, ok := Get(KindObjective, name); !ok {
			t.Errorf("objective %q not registered", name)
		}
	}
	if n := len(All(KindObjective)); n != len(wantObjectives) {
		t.Errorf("registry has %d objectives, want %d", n, len(wantObjectives))
	}

	// The policy axes: every router, order, admission and priority of
	// internal/policy and internal/strategies is registered and constructs.
	wantRouters := []string{"balance", "current", "eager", "first_fit", "fix", "fix_balance", "greedy"}
	for _, name := range wantRouters {
		if r, err := NewRouter(name, nil); err != nil {
			t.Errorf("NewRouter(%q): %v", name, err)
		} else if r.Name() != name {
			t.Errorf("router %q constructs %q", name, r.Name())
		}
	}
	if n := len(All(KindRouter)); n != len(wantRouters) {
		t.Errorf("registry has %d routers, want %d", n, len(wantRouters))
	}
	wantOrders := []string{"fcfs", "priority_fcfs", "sjf"}
	for _, name := range wantOrders {
		if o, err := NewOrder(name, nil); err != nil {
			t.Errorf("NewOrder(%q): %v", name, err)
		} else if o.Name() != name {
			t.Errorf("order %q constructs %q", name, o.Name())
		}
	}
	if n := len(All(KindOrder)); n != len(wantOrders) {
		t.Errorf("registry has %d orders, want %d", n, len(wantOrders))
	}
	wantAdmissions := []string{"always", "backlog", "burst", "token_bucket"}
	for _, name := range wantAdmissions {
		if a, err := NewAdmission(name, nil); err != nil {
			t.Errorf("NewAdmission(%q): %v", name, err)
		} else if a.Name() != name {
			t.Errorf("admission %q constructs %q", name, a.Name())
		}
	}
	if n := len(All(KindAdmission)); n != len(wantAdmissions) {
		t.Errorf("registry has %d admissions, want %d", n, len(wantAdmissions))
	}
	wantPriorities := []string{"constant", "slo_age", "weight"}
	for _, name := range wantPriorities {
		if pr, err := NewPriority(name, nil); err != nil {
			t.Errorf("NewPriority(%q): %v", name, err)
		} else if pr.Name() != name {
			t.Errorf("priority %q constructs %q", name, pr.Name())
		}
	}
	if n := len(All(KindPriority)); n != len(wantPriorities) {
		t.Errorf("registry has %d priorities, want %d", n, len(wantPriorities))
	}

	// Find resolves bare and kind-qualified names; Describe renders a schema.
	if _, ok := Find("balance"); !ok {
		t.Error("Find(balance) failed")
	}
	if _, ok := Find("adversary/balance"); !ok {
		t.Error("Find(adversary/balance) failed")
	}
	c, _ := Get(KindAdversary, "balance")
	if d := c.Describe(); !strings.Contains(d, "x") || !strings.Contains(d, "k") {
		t.Errorf("Describe lacks the parameter schema:\n%s", d)
	}
}

// TestUnknownParamRejected: every parameterized component rejects a name
// outside its schema, both via Validate and via the string parser.
func TestUnknownParamRejected(t *testing.T) {
	for _, kind := range Kinds() {
		for _, c := range All(kind) {
			if err := c.Validate(Params{"no_such_param": IntVal(1)}); err == nil {
				t.Errorf("%s %q accepted an unknown parameter", c.Kind, c.Name)
			}
			if _, err := c.ParseParams("no_such_param=1"); err == nil {
				t.Errorf("%s %q parsed an unknown parameter", c.Kind, c.Name)
			}
		}
	}
}

// TestDuplicateParamRejected: ParseParams must reject a repeated key with a
// clear error instead of letting the last occurrence win silently — a
// "k=1,k=2" spec is a typo or a spoofed override, never intent. Regression
// test for the duplicate-key check in ParseParams; the FuzzParseParams
// corpus carries matching seeds.
func TestDuplicateParamRejected(t *testing.T) {
	cases := []struct {
		kind  Kind
		name  string
		parms string
	}{
		{KindWorkload, "uniform", "n=1,n=2"},
		{KindWorkload, "uniform", "seed=1, seed=1"}, // even identical repeats
		{KindAdversary, "balance", "k=1,x=2,k=3"},
		{KindStrategy, "compose", "router=greedy,router=balance"},
	}
	for _, tc := range cases {
		c, ok := Get(tc.kind, tc.name)
		if !ok {
			t.Fatalf("%s %q not registered", tc.kind, tc.name)
		}
		_, err := c.ParseParams(tc.parms)
		if err == nil {
			t.Errorf("%s %q accepted duplicate key in %q", tc.kind, tc.name, tc.parms)
			continue
		}
		if !strings.Contains(err.Error(), "duplicate parameter") {
			t.Errorf("%s %q: duplicate key error lacks a clear message: %v", tc.kind, tc.name, err)
		}
	}
}

// TestOutOfRangeRejected spot-checks schema bounds and component Checks.
func TestOutOfRangeRejected(t *testing.T) {
	cases := []struct {
		kind  Kind
		name  string
		parms string
	}{
		{KindWorkload, "uniform", "n=0"},
		{KindWorkload, "uniform", "rate=-1"},
		{KindWorkload, "zipf", "s=1.0"}, // rand.NewZipf is undefined at s <= 1
		{KindWorkload, "video", "items=1"},
		{KindAdversary, "current", "l=1"},
		{KindAdversary, "current", "l=99"},
		{KindAdversary, "balance", "x=0"},
		{KindAdversary, "fix", "phases=0"},
	}
	for _, tc := range cases {
		c, ok := Get(tc.kind, tc.name)
		if !ok {
			t.Fatalf("%s %q not registered", tc.kind, tc.name)
		}
		if _, err := c.ParseParams(tc.parms); err == nil {
			t.Errorf("%s %q accepted out-of-range %q", tc.kind, tc.name, tc.parms)
		}
	}
}

// bump returns a copy of p with one parameter nudged off its default, or ok
// false when the nudge violates the schema (e.g. a Max bound or a Check).
func bump(c Component, p Params, sp Param) (Params, bool) {
	q := p.Clone()
	switch sp.Type {
	case Int:
		q[sp.Name] = IntVal(sp.Default.I + 1)
	case Float:
		q[sp.Name] = FloatVal(sp.Default.F + 0.25)
	}
	if err := c.Validate(q); err != nil {
		return nil, false
	}
	return q, true
}

// TestParamRoundTrip: for every component and every parameter, a nudged
// value survives FormatParams -> ParseParams -> Apply bit-identically.
func TestParamRoundTrip(t *testing.T) {
	for _, kind := range Kinds() {
		for _, c := range All(kind) {
			if _, err := c.Apply(Params{}); err != nil {
				t.Errorf("%s %q rejects its own defaults: %v", c.Kind, c.Name, err)
				continue
			}
			for _, sp := range c.Params {
				p, ok := bump(c, Params{}, sp)
				if !ok {
					continue
				}
				s := c.FormatParams(p)
				q, err := c.ParseParams(s)
				if err != nil {
					t.Errorf("%s %q: ParseParams(%q): %v", c.Kind, c.Name, s, err)
					continue
				}
				pa, err1 := c.Apply(p)
				qa, err2 := c.Apply(q)
				if err1 != nil || err2 != nil {
					t.Errorf("%s %q: Apply after round trip: %v / %v", c.Kind, c.Name, err1, err2)
					continue
				}
				if !pa.Equal(qa) {
					t.Errorf("%s %q: round trip of %q diverged: %v vs %v", c.Kind, c.Name, s, pa, qa)
				}
			}
		}
	}
}

// FuzzParseParams hammers the string parameter parser: it must never panic,
// and anything it accepts must survive Apply (defaults fill + validation).
func FuzzParseParams(f *testing.F) {
	f.Add("uniform", "n=4,d=2,rounds=10")
	f.Add("zipf", "s=1.2")
	f.Add("balance", "x=2,k=16,phases=8")
	f.Add("current", "l=5")
	f.Add("video", "items=3,s=2.5")
	f.Add("uniform", "")
	f.Add("uniform", "n==3")
	f.Add("uniform", ",,,")
	f.Add("uniform", "n=9007199254740993")
	f.Add("uniform", "rate=NaN")
	f.Add("uniform", "n=-1,n=2")
	f.Add("uniform", "seed=1,seed=1")
	f.Add("compose", "router=greedy,order=sjf")
	f.Add("compose", "router=no_such_router")
	f.Add("compose", "prio=slo_age,base=1.5,age_weight=0.25")
	f.Add("compose", "admit=burst,k=2,admit=burst")
	f.Fuzz(func(t *testing.T, name, s string) {
		c, ok := Find(name)
		if !ok {
			c, _ = Get(KindWorkload, "uniform")
		}
		p, err := c.ParseParams(s)
		if err != nil {
			return
		}
		full, err := c.Apply(p)
		if err != nil {
			t.Fatalf("%s %q: ParseParams(%q) accepted params Apply rejects: %v", c.Kind, c.Name, s, err)
		}
		for _, sp := range c.Params {
			if _, ok := full[sp.Name]; !ok {
				t.Fatalf("%s %q: Apply left %q unset", c.Kind, c.Name, sp.Name)
			}
		}
	})
}
