// Package registry is the declarative component catalog of the
// reproduction: every online strategy, adversarial construction, synthetic
// workload generator, and offline objective registers a typed descriptor
// carrying a stable name, a one-line doc, a parameter schema (defaults,
// types, bounds), and a constructor. The catalog is what makes the
// evaluation surface data instead of code — grid manifests, the runner
// pipeline, and every cmd/ frontend resolve components by (kind, name,
// params) records, so adding a strategy or workload family is one
// registration plus tests, not an edit to nine binaries.
//
// Registrations live in this package's strategies.go, adversaries.go,
// workloads.go, and objectives.go, keyed by the names the CLIs and the
// grid.BuildSpec wire format have always used; the completeness tests pin
// the catalog against the exported constructor surface so the two cannot
// drift.
package registry

import (
	"fmt"
	"sort"
	"strings"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/policy"
)

// Kind partitions the catalog.
type Kind string

const (
	// KindStrategy is an online scheduling strategy (global or local).
	KindStrategy Kind = "strategy"
	// KindAdversary is a lower-bound construction (fixed trace or adaptive).
	KindAdversary Kind = "adversary"
	// KindWorkload is a synthetic trace generator.
	KindWorkload Kind = "workload"
	// KindObjective is an offline optimum objective.
	KindObjective Kind = "objective"
	// KindRouter is a policy axis: which resource serves each request.
	KindRouter Kind = "router"
	// KindOrder is a policy axis: which pending request is served first.
	KindOrder Kind = "order"
	// KindAdmission is a policy axis: accept or reject a request on arrival.
	KindAdmission Kind = "admission"
	// KindPriority is a policy axis: a score per request feeding the order.
	KindPriority Kind = "priority"
)

// Kinds lists the catalog partitions in display order. The last four are the
// policy axes the "compose" strategy assembles (see internal/policy).
func Kinds() []Kind {
	return []Kind{KindStrategy, KindAdversary, KindWorkload, KindObjective,
		KindRouter, KindOrder, KindAdmission, KindPriority}
}

// Component is one catalog entry. Exactly one of the constructor fields is
// set, matching Kind. Constructors receive a complete parameter set (Apply
// fills defaults), so they do not re-validate.
type Component struct {
	Kind Kind
	// Name is the stable registry name; for strategies it equals the
	// instance's Name(), for adversaries and workloads it is the
	// grid.BuildSpec kind string.
	Name string
	// Doc is the one-line description shown by -list and -describe.
	Doc string
	// Params is the parameter schema, in canonical (serialization) order.
	Params []Param
	// Check optionally rejects parameter combinations the per-parameter
	// bounds cannot express (e.g. "d must be divisible by 3"). It runs on
	// the default-filled set.
	Check func(Params) error

	// Listed marks strategies included in the default "every strategy"
	// iteration of the CLIs (schedsim -all, sweep -mode load, the facade's
	// Strategies map). Unlisted components remain addressable by name.
	Listed bool

	// Strategy constructs a fresh strategy instance (KindStrategy).
	Strategy func(Params) core.Strategy
	// Build constructs an adversarial input (KindAdversary).
	Build func(Params) adversary.Construction
	// Generate constructs a synthetic trace (KindWorkload).
	Generate func(Params) *core.Trace
	// Evaluate computes the offline objective on a trace with the given
	// worker-pool size (KindObjective).
	Evaluate func(tr *core.Trace, workers int) int
	// Router, Order, Priority and Admission construct policy-axis components
	// (KindRouter, KindOrder, KindPriority, KindAdmission).
	Router    func(Params) policy.Router
	Order     func(Params) policy.QueueOrder
	Priority  func(Params) policy.Priority
	Admission func(Params) policy.Admission
}

var catalog = map[Kind]map[string]Component{}

// Register adds a component to the catalog. It panics on a duplicate
// (kind, name) or a malformed descriptor — registration happens in this
// package's init functions, so any violation is a programming error caught
// by the first test that imports the package.
func Register(c Component) {
	if c.Name == "" {
		panic("registry: component with empty name")
	}
	ok := false
	switch c.Kind {
	case KindStrategy:
		ok = c.Strategy != nil
	case KindAdversary:
		ok = c.Build != nil
	case KindWorkload:
		ok = c.Generate != nil
	case KindObjective:
		ok = c.Evaluate != nil
	case KindRouter:
		ok = c.Router != nil
	case KindOrder:
		ok = c.Order != nil
	case KindPriority:
		ok = c.Priority != nil
	case KindAdmission:
		ok = c.Admission != nil
	default:
		panic(fmt.Sprintf("registry: %q: unknown kind %q", c.Name, c.Kind))
	}
	if !ok {
		panic(fmt.Sprintf("registry: %s %q: missing constructor", c.Kind, c.Name))
	}
	seen := map[string]bool{}
	for _, p := range c.Params {
		if seen[p.Name] {
			panic(fmt.Sprintf("registry: %s %q: duplicate parameter %q", c.Kind, c.Name, p.Name))
		}
		seen[p.Name] = true
		if p.Default.T != p.Type {
			panic(fmt.Sprintf("registry: %s %q: parameter %q default has wrong type", c.Kind, c.Name, p.Name))
		}
	}
	m := catalog[c.Kind]
	if m == nil {
		m = map[string]Component{}
		catalog[c.Kind] = m
	}
	if _, dup := m[c.Name]; dup {
		panic(fmt.Sprintf("registry: duplicate %s %q", c.Kind, c.Name))
	}
	m[c.Name] = c
}

// Get returns the named component of the given kind.
func Get(kind Kind, name string) (Component, bool) {
	c, ok := catalog[kind][name]
	return c, ok
}

// Names returns the sorted names of every component of the given kind.
func Names(kind Kind) []string {
	names := make([]string, 0, len(catalog[kind]))
	for name := range catalog[kind] {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns every component of the given kind, sorted by name.
func All(kind Kind) []Component {
	names := Names(kind)
	out := make([]Component, len(names))
	for i, name := range names {
		out[i] = catalog[kind][name]
	}
	return out
}

// Find returns the component with the given name, searching every kind in
// Kinds() order — the -describe lookup, where names are unambiguous enough
// in practice (a kind-qualified "kind/name" form disambiguates if not).
func Find(name string) (Component, bool) {
	if kind, bare, ok := strings.Cut(name, "/"); ok {
		if c, found := Get(Kind(kind), bare); found {
			return c, true
		}
	}
	for _, kind := range Kinds() {
		if c, ok := Get(kind, name); ok {
			return c, true
		}
	}
	return Component{}, false
}

// NewStrategy constructs the named strategy with the given params (nil:
// defaults). It returns an error for unknown names or invalid params.
func NewStrategy(name string, p Params) (core.Strategy, error) {
	c, ok := Get(KindStrategy, name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown strategy %q", name)
	}
	full, err := c.Apply(p)
	if err != nil {
		return nil, err
	}
	return c.Strategy(full), nil
}

// NewStrategySpec resolves a "name[,key=value...]" strategy spec — the form
// every frontend accepts (-strategy flags, grid manifests, experiment
// suites) — and constructs the strategy. A bare name is the name with
// default parameters, so all pre-existing spec strings (and the job IDs
// derived from them) are unchanged. The spec is parsed once and validated
// once, by NewStrategy's Apply: a composite's Check builds the composite, so
// validating again would build it again.
func NewStrategySpec(spec string) (core.Strategy, error) {
	name, rest, _ := strings.Cut(spec, ",")
	c, ok := Get(KindStrategy, name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown strategy %q", name)
	}
	p, err := c.parseParams(rest)
	if err != nil {
		return nil, err
	}
	return NewStrategy(name, p)
}

// NewRouter, NewOrder, NewPriority and NewAdmission construct policy-axis
// components with the given params (nil: defaults).
func NewRouter(name string, p Params) (policy.Router, error) {
	c, ok := Get(KindRouter, name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown router %q", name)
	}
	full, err := c.Apply(p)
	if err != nil {
		return nil, err
	}
	return c.Router(full), nil
}

// NewOrder constructs the named queue order.
func NewOrder(name string, p Params) (policy.QueueOrder, error) {
	c, ok := Get(KindOrder, name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown order %q", name)
	}
	full, err := c.Apply(p)
	if err != nil {
		return nil, err
	}
	return c.Order(full), nil
}

// NewPriority constructs the named priority.
func NewPriority(name string, p Params) (policy.Priority, error) {
	c, ok := Get(KindPriority, name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown priority %q", name)
	}
	full, err := c.Apply(p)
	if err != nil {
		return nil, err
	}
	return c.Priority(full), nil
}

// NewAdmission constructs the named admission policy.
func NewAdmission(name string, p Params) (policy.Admission, error) {
	c, ok := Get(KindAdmission, name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown admission %q", name)
	}
	full, err := c.Apply(p)
	if err != nil {
		return nil, err
	}
	return c.Admission(full), nil
}

// BuildAdversary constructs the named adversarial input with the given
// params (nil: defaults).
func BuildAdversary(name string, p Params) (adversary.Construction, error) {
	c, ok := Get(KindAdversary, name)
	if !ok {
		return adversary.Construction{}, fmt.Errorf("registry: unknown adversary %q", name)
	}
	full, err := c.Apply(p)
	if err != nil {
		return adversary.Construction{}, err
	}
	return c.Build(full), nil
}

// GenerateWorkload constructs the named synthetic trace with the given
// params (nil: defaults).
func GenerateWorkload(name string, p Params) (*core.Trace, error) {
	c, ok := Get(KindWorkload, name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown workload %q", name)
	}
	full, err := c.Apply(p)
	if err != nil {
		return nil, err
	}
	return c.Generate(full), nil
}

// BuildSource constructs an input from either catalog: adversary names win,
// then workload names (the two sets are disjoint; the completeness test
// enforces it). This is the resolution rule of grid.BuildSpec kinds.
func BuildSource(name string, p Params) (adversary.Construction, error) {
	if _, ok := Get(KindAdversary, name); ok {
		return BuildAdversary(name, p)
	}
	if _, ok := Get(KindWorkload, name); ok {
		tr, err := GenerateWorkload(name, p)
		if err != nil {
			return adversary.Construction{}, err
		}
		return adversary.Construction{Name: name, N: tr.N, D: tr.D, Trace: tr}, nil
	}
	return adversary.Construction{}, fmt.Errorf("registry: unknown adversary or workload %q", name)
}

// SourceComponent resolves name against the adversary catalog first, then
// the workload catalog — the schema lookup matching BuildSource.
func SourceComponent(name string) (Component, bool) {
	if c, ok := Get(KindAdversary, name); ok {
		return c, true
	}
	return Get(KindWorkload, name)
}

// ListedStrategies returns fresh instances of every Listed strategy (default
// params), keyed by name — the facade's Strategies() map.
func ListedStrategies() map[string]core.Strategy {
	out := map[string]core.Strategy{}
	for name, c := range catalog[KindStrategy] {
		if c.Listed {
			out[name] = c.Strategy(c.Defaults())
		}
	}
	return out
}

// Describe renders a component's full card: name, kind, doc, and parameter
// schema — the -describe output. Grouped parameters (Param.Group, e.g. the
// service-model group) render under their own "<group> parameters:" heading
// after the component's own schema, in first-appearance order, each line
// still carrying the default and bounds.
func (c Component) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %q\n  %s\n", c.Kind, c.Name, c.Doc)
	var own []Param
	var groups []string
	byGroup := map[string][]Param{}
	for _, p := range c.Params {
		if p.Group == "" {
			own = append(own, p)
			continue
		}
		if _, seen := byGroup[p.Group]; !seen {
			groups = append(groups, p.Group)
		}
		byGroup[p.Group] = append(byGroup[p.Group], p)
	}
	if len(c.Params) == 0 {
		sb.WriteString("  parameters: none\n")
		return sb.String()
	}
	if len(own) > 0 {
		sb.WriteString("  parameters:\n")
		for _, p := range own {
			fmt.Fprintf(&sb, "    %s\n", p)
		}
	}
	for _, g := range groups {
		fmt.Fprintf(&sb, "  %s parameters:\n", g)
		for _, p := range byGroup[g] {
			fmt.Fprintf(&sb, "    %s\n", p)
		}
	}
	return sb.String()
}
