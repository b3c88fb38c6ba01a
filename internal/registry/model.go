package registry

import "reqsched/internal/core"

// ModelGroup is the Param.Group of the service-model parameters. Every
// strategy and workload schema carries the group, so "hold=k,cap=c" parses
// uniformly across specs and -describe renders the group under its own
// heading on every binary.
const ModelGroup = "model"

// ModelParams returns the service-model parameter group (core.ServiceModel).
// The defaults are 0, not 1: 0 normalizes to the legacy unit value, and a
// zero default keeps every pre-existing spec string, grid job ID and
// compose instance name byte-identical (FormatParams omits defaults, and the
// BuildSpec wire format omits zero fields).
func ModelParams() []Param {
	return []Param{
		{Name: "hold", Doc: "service model: rounds a served request occupies its resource (0 = 1, the unit model)",
			Type: Int, Default: IntVal(0), Min: Bound(0), Max: Bound(1024), Group: ModelGroup},
		{Name: "cap", Doc: "service model: services a resource can hold concurrently (0 = 1, the unit model)",
			Type: Int, Default: IntVal(0), Min: Bound(0), Max: Bound(1024), Group: ModelGroup},
	}
}

// ModelOf extracts the normalized service model from a parameter set carrying
// the ModelParams group (absent entries read as 0, i.e. unit).
func ModelOf(p Params) core.ServiceModel {
	return core.ServiceModel{Hold: p.Int("hold"), Cap: p.Int("cap")}.Norm()
}

// modelCheck builds a Check that probes a strategy instance against the
// parameter set's service model: scan-based strategies accept any model,
// matching-based ones accept hold=1 only, and everything else is unit-only
// (core.CheckModelSupport), so an unsupported "hold=k,cap=c" spec fails at
// parse time on every frontend instead of panicking inside the engine. Every
// strategy supports the unit model, so that case builds no probe instance.
func modelCheck(mk func(Params) core.Strategy) func(Params) error {
	return func(p Params) error {
		m := ModelOf(p)
		if m.IsUnit() {
			return nil
		}
		return core.CheckModelSupport(mk(p), m)
	}
}
