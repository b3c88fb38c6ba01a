package registry

import (
	"strings"
	"testing"
)

// TestComposeConstruction: the compose strategy resolves its axis references,
// rejects unknown ones with the catalog in the message, and names instances
// by their round-trippable spec.
func TestComposeConstruction(t *testing.T) {
	s, err := NewStrategySpec("compose")
	if err != nil {
		t.Fatalf("compose with defaults: %v", err)
	}
	if s.Name() != "compose" {
		t.Errorf("default composition named %q, want compose", s.Name())
	}

	spec := "compose,router=greedy,order=sjf"
	s, err = NewStrategySpec(spec)
	if err != nil {
		t.Fatalf("NewStrategySpec(%q): %v", spec, err)
	}
	if s.Name() != spec {
		t.Errorf("composition named %q, want the spec %q", s.Name(), spec)
	}
	// The instance name is itself a resolvable spec.
	if _, err := NewStrategySpec(s.Name()); err != nil {
		t.Errorf("instance name %q does not round-trip: %v", s.Name(), err)
	}

	for _, bad := range []string{
		"compose,router=nope",
		"compose,order=nope",
		"compose,admit=nope",
		"compose,prio=nope",
	} {
		_, err := NewStrategySpec(bad)
		if err == nil {
			t.Errorf("NewStrategySpec(%q) accepted an unknown axis", bad)
			continue
		}
		if !strings.Contains(err.Error(), "unknown") {
			t.Errorf("NewStrategySpec(%q): unhelpful error %v", bad, err)
		}
	}

	// Parameterized axes flow through: a burst admission with k=2 and an
	// aged-SLO priority build without error and keep their spec name.
	spec = "compose,order=priority_fcfs,admit=burst,prio=slo_age,k=2,base=1,age_weight=0.5"
	s, err = NewStrategySpec(spec)
	if err != nil {
		t.Fatalf("NewStrategySpec(%q): %v", spec, err)
	}
	if s.Name() != spec {
		t.Errorf("composition named %q, want %q", s.Name(), spec)
	}
}

// TestNewStrategySpecChecksOnce: resolving a spec validates it exactly once.
// A composite's Check builds the whole composite, so every extra validation
// pass is a throwaway construction. Rejected specs must carry the error
// ParseParams reports for the same parameters.
func TestNewStrategySpecChecksOnce(t *testing.T) {
	orig := catalog[KindStrategy]["compose"]
	defer func() { catalog[KindStrategy]["compose"] = orig }()
	checks := 0
	counted := orig
	counted.Check = func(p Params) error {
		checks++
		return orig.Check(p)
	}
	catalog[KindStrategy]["compose"] = counted

	for _, tc := range []struct {
		spec       string
		wantChecks int
		wantErr    bool
	}{
		{"compose", 1, false},
		{"compose,router=fix", 1, false},
		{"compose,order=priority_fcfs,admit=burst,prio=slo_age,k=2", 1, false},
		{"compose,router=nope", 1, true},
		{"compose,router=balance,hold=2", 1, true},
		{"compose,k=0", 0, true},
		{"compose,bogus=1", 0, true},
		{"compose,router", 0, true},
		{"compose,router=fix,router=fix", 0, true},
	} {
		checks = 0
		_, err := NewStrategySpec(tc.spec)
		if checks != tc.wantChecks {
			t.Errorf("NewStrategySpec(%q): Check ran %d times, want %d", tc.spec, checks, tc.wantChecks)
		}
		if (err != nil) != tc.wantErr {
			t.Errorf("NewStrategySpec(%q): err %v, want error %v", tc.spec, err, tc.wantErr)
			continue
		}
		if err != nil {
			_, rest, _ := strings.Cut(tc.spec, ",")
			_, want := counted.ParseParams(rest)
			if want == nil || err.Error() != want.Error() {
				t.Errorf("NewStrategySpec(%q): error %q, ParseParams gives %v", tc.spec, err, want)
			}
		}
	}
}
