package registry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Type is the value type of a component parameter. The paper's parameters
// are numeric: counts and seeds are Int (carried as int64, so seeds
// round-trip exactly), rates and exponents are Float. Str names another
// registered component — the compose strategy's axis references.
type Type int

const (
	Int Type = iota
	Float
	Str
)

func (t Type) String() string {
	switch t {
	case Float:
		return "float"
	case Str:
		return "string"
	}
	return "int"
}

// Value is one typed parameter value.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// IntVal, FloatVal and StrVal build Values.
func IntVal(i int64) Value     { return Value{T: Int, I: i} }
func FloatVal(f float64) Value { return Value{T: Float, F: f} }
func StrVal(s string) Value    { return Value{T: Str, S: s} }

// Num returns the value as a float64 regardless of type (for range checks;
// Str values have no numeric form and no bounds).
func (v Value) Num() float64 {
	switch v.T {
	case Int:
		return float64(v.I)
	case Str:
		return 0
	}
	return v.F
}

func (v Value) String() string {
	switch v.T {
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Str:
		return v.S
	}
	// 'g' with -1 precision is the shortest representation that parses back
	// to exactly the same float64, so FormatParams/ParseParams round-trip.
	return strconv.FormatFloat(v.F, 'g', -1, 64)
}

// Param is one entry of a component's parameter schema.
type Param struct {
	// Name is the parameter's stable name; for adversary and workload
	// components it matches the grid.BuildSpec JSON field carrying it.
	Name string
	// Doc is a one-line description shown by -describe.
	Doc string
	// Type is the value type; values of the other type are rejected.
	Type Type
	// Default is the value used when the parameter is omitted.
	Default Value
	// Min and Max are optional inclusive bounds (nil: unbounded).
	Min, Max *float64
	// Group optionally names a parameter group ("" is the component's own
	// ungrouped schema). Describe renders each group under its own heading,
	// e.g. the shared service-model group on every strategy and workload.
	Group string
}

// Bound is a convenience for building *float64 range limits.
func Bound(f float64) *float64 { return &f }

func (p Param) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s (default %s", p.Name, p.Type, p.Default)
	if p.Min != nil && p.Max != nil {
		fmt.Fprintf(&sb, ", range [%g, %g]", *p.Min, *p.Max)
	} else if p.Min != nil {
		fmt.Fprintf(&sb, ", min %g", *p.Min)
	} else if p.Max != nil {
		fmt.Fprintf(&sb, ", max %g", *p.Max)
	}
	sb.WriteString(")")
	if p.Doc != "" {
		sb.WriteString(" — " + p.Doc)
	}
	return sb.String()
}

// Params maps parameter names to values. A nil map is a valid empty set.
type Params map[string]Value

// Int returns the named parameter as an int. The value must exist (call
// Component.Apply first to fill defaults).
func (p Params) Int(name string) int { return int(p[name].I) }

// Int64 returns the named parameter as an int64 (seeds).
func (p Params) Int64(name string) int64 { return p[name].I }

// Float returns the named parameter as a float64.
func (p Params) Float(name string) float64 { return p[name].F }

// Str returns the named parameter as a string.
func (p Params) Str(name string) string { return p[name].S }

// Clone returns a copy of p.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Equal reports whether two parameter sets hold exactly the same values.
func (p Params) Equal(q Params) bool {
	if len(p) != len(q) {
		return false
	}
	for k, v := range p {
		w, ok := q[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

func (p Params) String() string {
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = name + "=" + p[name].String()
	}
	return strings.Join(parts, ",")
}

// param looks up the schema entry for name.
func (c Component) param(name string) (Param, bool) {
	for _, p := range c.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Validate checks p against the component's schema: every name must be
// declared, every value must have the declared type and lie within the
// declared bounds, and the component's extra Check (if any) must accept the
// completed set. Missing parameters are not an error — Apply fills defaults.
func (c Component) Validate(p Params) error {
	_, err := c.validate(p, false)
	return err
}

// validate is Validate returning the default-filled set. It builds that set
// only when fill is set or Check needs it for a partial p: once every name
// in p is known to be declared, len(p) == len(c.Params) means p is already
// complete, and Check reads it in place.
func (c Component) validate(p Params, fill bool) (Params, error) {
	for name, v := range p {
		sp, ok := c.param(name)
		if !ok {
			return nil, fmt.Errorf("registry: %s %q: unknown parameter %q (schema: %s)",
				c.Kind, c.Name, name, c.schemaNames())
		}
		if v.T != sp.Type {
			return nil, fmt.Errorf("registry: %s %q: parameter %q is %s, got %s value %s",
				c.Kind, c.Name, name, sp.Type, v.T, v)
		}
		// Non-finite floats must be rejected explicitly: NaN compares false
		// against any bound (so it would sail through Min/Max), and ±Inf
		// passes any one-sided bound. Once parameters arrive over the wire
		// (cmd/serve -strategy, HTTP-configured components) this is an input
		// validation hole, not a curiosity.
		if v.T == Float && (math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
			return nil, fmt.Errorf("registry: %s %q: parameter %q = %s is not a finite number",
				c.Kind, c.Name, name, v)
		}
		if sp.Min != nil && v.Num() < *sp.Min {
			return nil, fmt.Errorf("registry: %s %q: parameter %q = %s below minimum %g",
				c.Kind, c.Name, name, v, *sp.Min)
		}
		if sp.Max != nil && v.Num() > *sp.Max {
			return nil, fmt.Errorf("registry: %s %q: parameter %q = %s above maximum %g",
				c.Kind, c.Name, name, v, *sp.Max)
		}
	}
	full := p
	if fill || (c.Check != nil && len(p) != len(c.Params)) {
		full = c.fill(p)
	}
	if c.Check != nil {
		if err := c.Check(full); err != nil {
			return nil, fmt.Errorf("registry: %s %q: %w", c.Kind, c.Name, err)
		}
	}
	return full, nil
}

// fill returns p with defaults for every omitted schema parameter.
func (c Component) fill(p Params) Params {
	out := make(Params, len(c.Params))
	for _, sp := range c.Params {
		if v, ok := p[sp.Name]; ok {
			out[sp.Name] = v
		} else {
			out[sp.Name] = sp.Default
		}
	}
	return out
}

// Apply validates p and returns the complete parameter set with defaults
// filled in — the form the component constructors consume.
func (c Component) Apply(p Params) (Params, error) { return c.validate(p, true) }

// Defaults returns the component's complete default parameter set.
func (c Component) Defaults() Params { return c.fill(nil) }

func (c Component) schemaNames() string {
	if len(c.Params) == 0 {
		return "none"
	}
	names := make([]string, len(c.Params))
	for i, p := range c.Params {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// ParseParams parses a "name=value,name=value" string against the schema.
// The empty string is the empty set. Values are parsed per the declared
// type, so "seed=9007199254740993" keeps int64 precision. The result is
// validated (unknown names, types, bounds, Check).
func (c Component) ParseParams(s string) (Params, error) {
	p, err := c.parseParams(s)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// parseParams is ParseParams without the validation, for callers that
// validate once through Apply: it rejects only what it cannot parse
// (malformed, unknown, duplicate or mistyped parameters).
func (c Component) parseParams(s string) (Params, error) {
	p := Params{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("registry: %s %q: parameter %q is not name=value",
				c.Kind, c.Name, part)
		}
		name, val = strings.TrimSpace(name), strings.TrimSpace(val)
		sp, found := c.param(name)
		if !found {
			return nil, fmt.Errorf("registry: %s %q: unknown parameter %q (schema: %s)",
				c.Kind, c.Name, name, c.schemaNames())
		}
		if _, dup := p[name]; dup {
			return nil, fmt.Errorf("registry: %s %q: duplicate parameter %q", c.Kind, c.Name, name)
		}
		switch sp.Type {
		case Int:
			i, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("registry: %s %q: parameter %q: %q is not an int",
					c.Kind, c.Name, name, val)
			}
			p[name] = IntVal(i)
		case Float:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("registry: %s %q: parameter %q: %q is not a float",
					c.Kind, c.Name, name, val)
			}
			p[name] = FloatVal(f)
		case Str:
			p[name] = StrVal(val)
		}
	}
	return p, nil
}

// FormatParams renders p canonically: schema order, one name=value per
// parameter, defaults omitted. ParseParams(FormatParams(p)) reproduces p
// minus explicitly-set default values, and formatting is stable across runs.
func (c Component) FormatParams(p Params) string {
	var parts []string
	for _, sp := range c.Params {
		if v, ok := p[sp.Name]; ok && v != sp.Default {
			parts = append(parts, sp.Name+"="+v.String())
		}
	}
	return strings.Join(parts, ",")
}
