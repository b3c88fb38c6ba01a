// Package grid is the fault-tolerant distributed execution layer for
// measurement grids: the paper's evaluation is a grid of (construction,
// strategy) cells, and a sweep that outgrows one process must survive
// workers that crash, hang, or return garbage. The package provides
//
//   - a serializable job description (Spec) with deterministic content-derived
//     job IDs, so the same grid built twice — or on two machines — names its
//     cells identically;
//   - an append-only JSONL checkpoint journal (Journal) with per-record
//     digests and torn-write detection, so an interrupted sweep resumes
//     bit-identically;
//   - a supervisor (Run) that drives gridworkers over a pluggable Transport —
//     subprocess pipes (PipeTransport) or TCP to remote hosts (TCPTransport,
//     with a versioned handshake, deadlines, backoff redial, and host-loss
//     requeueing) — speaking one JSONL protocol, with per-job wall-clock
//     deadlines, heartbeat liveness, exponential backoff with seeded jitter,
//     a bounded retry budget, at-most-once record acceptance, and
//     supervisor-side re-verification of every returned record;
//   - the worker side of both transports: WorkerMain (one pipe/connection)
//     and ServeWorker (the TCP accept loop behind `gridworker -listen`);
//   - an in-process runner (RunLocal) sharing the journal/resume semantics
//     but executing on the ratio worker pool — the -shard 0 path;
//   - a deterministic chaos layer (subpackage chaos) injecting kill, stall,
//     and corrupt-record process faults at fixed job indices plus
//     drop/stall/trunc/partition link faults at fixed protocol message
//     indices, used by the property tests proving single-fault schedules
//     reproduce the clean grid.
package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/registry"
)

// Spec describes one grid cell — a (construction, strategy) measurement — in
// a serializable, deterministic form. Unlike ratio.Job's closures, a Spec can
// cross a process boundary and derive a stable identity from its content.
type Spec struct {
	// Strategy names the online strategy (reqsched.Strategies key).
	Strategy string `json:"strategy"`
	// Build describes the adversarial construction or synthetic workload.
	Build BuildSpec `json:"build"`
}

// BuildSpec selects and parameterizes an input family. Kind names a
// registered adversary or workload component (internal/registry); the
// remaining fields are that component's parameters (unused ones stay zero
// and are omitted from the wire form, keeping IDs stable when new
// parameters are added). The field set is the union of every component's
// schema — the JSON tags are the registry parameter names, so a
// (component, params) record and a BuildSpec are two spellings of the same
// job.
type BuildSpec struct {
	// Kind is a registry adversary name ("fix", "current",
	// "current_factorial", "fix_balance", "eager", "balance", "universal",
	// "universal_anyd", "local_fix", "edf") or workload name ("uniform",
	// "zipf", "bursty", "video", "single", "cchoice", "mixed", "weighted",
	// "trapmix").
	Kind string `json:"kind"`
	// Adversary parameters (Table 1 families).
	D      int `json:"d,omitempty"`
	Phases int `json:"phases,omitempty"`
	L      int `json:"l,omitempty"`
	X      int `json:"x,omitempty"`
	K      int `json:"k,omitempty"`
	// Workload parameters (synthetic generators).
	N      int     `json:"n,omitempty"`
	Rounds int     `json:"rounds,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	S      float64 `json:"s,omitempty"`
	On     int     `json:"on,omitempty"`
	Off    int     `json:"off,omitempty"`
	Burst  float64 `json:"burst,omitempty"`
	C      int     `json:"c,omitempty"`
	// Extended workload parameters (video/weighted/trapmix families).
	Items     int `json:"items,omitempty"`
	MaxW      int `json:"maxw,omitempty"`
	TrapEvery int `json:"trap_every,omitempty"`
	// Service-model parameters (the registry ModelParams group and the
	// reusable/hold_squeeze families). Zero means unset — the unit model —
	// so pre-model specs keep their job IDs.
	Hold int     `json:"hold,omitempty"`
	Cap  int     `json:"cap,omitempty"`
	Load float64 `json:"load,omitempty"`
}

// specFields maps registry parameter names onto BuildSpec fields. Every
// parameter a registered adversary or workload declares must appear here
// (the registry parity test enforces it); the JSON tag of each field equals
// its key.
var specFields = map[string]struct {
	get func(*BuildSpec) registry.Value
	set func(*BuildSpec, registry.Value)
}{
	"d":      {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.D)) }, func(b *BuildSpec, v registry.Value) { b.D = int(v.I) }},
	"phases": {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.Phases)) }, func(b *BuildSpec, v registry.Value) { b.Phases = int(v.I) }},
	"l":      {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.L)) }, func(b *BuildSpec, v registry.Value) { b.L = int(v.I) }},
	"x":      {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.X)) }, func(b *BuildSpec, v registry.Value) { b.X = int(v.I) }},
	"k":      {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.K)) }, func(b *BuildSpec, v registry.Value) { b.K = int(v.I) }},
	"n":      {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.N)) }, func(b *BuildSpec, v registry.Value) { b.N = int(v.I) }},
	"rounds": {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.Rounds)) }, func(b *BuildSpec, v registry.Value) { b.Rounds = int(v.I) }},
	"rate":   {func(b *BuildSpec) registry.Value { return registry.FloatVal(b.Rate) }, func(b *BuildSpec, v registry.Value) { b.Rate = v.F }},
	"seed":   {func(b *BuildSpec) registry.Value { return registry.IntVal(b.Seed) }, func(b *BuildSpec, v registry.Value) { b.Seed = v.I }},
	"s":      {func(b *BuildSpec) registry.Value { return registry.FloatVal(b.S) }, func(b *BuildSpec, v registry.Value) { b.S = v.F }},
	"on":     {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.On)) }, func(b *BuildSpec, v registry.Value) { b.On = int(v.I) }},
	"off":    {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.Off)) }, func(b *BuildSpec, v registry.Value) { b.Off = int(v.I) }},
	"burst":  {func(b *BuildSpec) registry.Value { return registry.FloatVal(b.Burst) }, func(b *BuildSpec, v registry.Value) { b.Burst = v.F }},
	"c":      {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.C)) }, func(b *BuildSpec, v registry.Value) { b.C = int(v.I) }},
	"items":  {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.Items)) }, func(b *BuildSpec, v registry.Value) { b.Items = int(v.I) }},
	"maxw":   {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.MaxW)) }, func(b *BuildSpec, v registry.Value) { b.MaxW = int(v.I) }},
	"trap_every": {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.TrapEvery)) },
		func(b *BuildSpec, v registry.Value) { b.TrapEvery = int(v.I) }},
	"hold": {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.Hold)) }, func(b *BuildSpec, v registry.Value) { b.Hold = int(v.I) }},
	"cap":  {func(b *BuildSpec) registry.Value { return registry.IntVal(int64(b.Cap)) }, func(b *BuildSpec, v registry.Value) { b.Cap = int(v.I) }},
	"load": {func(b *BuildSpec) registry.Value { return registry.FloatVal(b.Load) }, func(b *BuildSpec, v registry.Value) { b.Load = v.F }},
}

// Params extracts the spec's parameter set for its component's schema: one
// value per declared parameter, straight off the fields (zeros included —
// the wire format has no "omitted" distinct from zero).
func (b BuildSpec) Params() (registry.Params, error) {
	c, ok := registry.SourceComponent(b.Kind)
	if !ok {
		return nil, fmt.Errorf("grid: unknown build kind %q", b.Kind)
	}
	p := make(registry.Params, len(c.Params))
	for _, sp := range c.Params {
		f, ok := specFields[sp.Name]
		if !ok {
			return nil, fmt.Errorf("grid: %s %q parameter %q has no BuildSpec field", c.Kind, c.Name, sp.Name)
		}
		p[sp.Name] = f.get(&b)
	}
	return p, nil
}

// SpecFor builds the wire-format Spec for a (strategy, source, params)
// registry record — the declarative manifest entry. Unset parameters take
// the component's defaults, so the spec (and hence the job ID) is fully
// determined by the record.
func SpecFor(strategy, source string, p registry.Params) (Spec, error) {
	c, ok := registry.SourceComponent(source)
	if !ok {
		return Spec{}, fmt.Errorf("grid: unknown build kind %q", source)
	}
	full, err := c.Apply(p)
	if err != nil {
		return Spec{}, err
	}
	b := BuildSpec{Kind: source}
	for name, v := range full {
		f, ok := specFields[name]
		if !ok {
			return Spec{}, fmt.Errorf("grid: %s %q parameter %q has no BuildSpec field", c.Kind, c.Name, name)
		}
		f.set(&b, v)
	}
	s := Spec{Strategy: strategy, Build: b}
	return s, s.Validate()
}

// Construction materializes the input the spec describes by resolving its
// kind in the registry. Generation is deterministic: the same spec yields
// the same trace (or adaptive source) in every process, which is what makes
// cross-process measurements and resume runs bit-identical.
func (b BuildSpec) Construction() (adversary.Construction, error) {
	p, err := b.Params()
	if err != nil {
		return adversary.Construction{}, err
	}
	return registry.BuildSource(b.Kind, p)
}

// newStrategy returns a fresh instance of the strategy spec
// ("name[,key=value...]") from the registry, or nil. Bare names construct
// with default parameters, so pre-existing manifests (and their
// content-derived job IDs) are unchanged; parameterized specs such as
// "compose,router=greedy,order=sjf" hash to their own IDs.
func newStrategy(spec string) core.Strategy {
	s, err := registry.NewStrategySpec(spec)
	if err != nil {
		return nil
	}
	return s
}

// Validate checks that the spec names a known build kind and strategy, and
// that its parameters pass the component's schema, without generating the
// input — the cheap pre-flight the runners do on the whole manifest before
// any work starts.
func (s Spec) Validate() error {
	c, ok := registry.SourceComponent(s.Build.Kind)
	if !ok {
		return fmt.Errorf("grid: unknown build kind %q", s.Build.Kind)
	}
	p, err := s.Build.Params()
	if err != nil {
		return err
	}
	if err := c.Validate(p); err != nil {
		return fmt.Errorf("grid: %w", err)
	}
	if newStrategy(s.Strategy) == nil {
		return fmt.Errorf("grid: unknown strategy %q", s.Strategy)
	}
	return nil
}

// Job is one manifest entry: a spec plus its deterministic ID and its row
// position in the grid's output.
type Job struct {
	// Index is the job's position in the manifest (the output row order).
	Index int `json:"index"`
	// ID is the content-derived job identity the journal is keyed by.
	ID string `json:"id"`
	// Name is a human-readable label for logs and failure reports; it does
	// not participate in the ID.
	Name string `json:"name,omitempty"`
	// Spec is the serializable job description.
	Spec Spec `json:"spec"`
}

// specID derives the deterministic job ID: a truncated SHA-256 over the
// spec's canonical JSON encoding (struct field order is fixed, zero-valued
// parameters are omitted), salted with the occurrence counter when the same
// spec appears more than once in a manifest.
func specID(s Spec, occurrence int) string {
	b, err := json.Marshal(s)
	if err != nil { // a Spec is plain data; Marshal cannot fail
		panic(fmt.Sprintf("grid: marshal spec: %v", err))
	}
	if occurrence > 0 {
		b = append(b, fmt.Sprintf("#%d", occurrence)...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// BuildManifest turns named specs into a validated manifest with
// deterministic IDs. names may be nil (unnamed jobs) or must match specs in
// length. Duplicate specs get occurrence-salted IDs, so every manifest entry
// is individually addressable in the journal.
func BuildManifest(specs []Spec, names []string) ([]Job, error) {
	if names != nil && len(names) != len(specs) {
		return nil, fmt.Errorf("grid: %d names for %d specs", len(names), len(specs))
	}
	jobs := make([]Job, len(specs))
	seen := make(map[string]int, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("grid: job %d: %w", i, err)
		}
		base := specID(s, 0)
		id := base
		if n := seen[base]; n > 0 {
			id = specID(s, n)
		}
		seen[base]++
		jobs[i] = Job{Index: i, ID: id, Spec: s}
		if names != nil {
			jobs[i].Name = names[i]
		}
	}
	return jobs, nil
}
