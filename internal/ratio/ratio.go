// Package ratio measures empirical competitive ratios: it runs an online
// strategy and the offline optimum on the same input and reports
// perf_OPT / perf_ALG, plus the worker pool the sweep and Table 1 harnesses
// run on.
package ratio

import (
	"fmt"
	"math"

	"reqsched/internal/adversary"
	"reqsched/internal/core"
	"reqsched/internal/offline"
)

// Measurement is one (strategy, input) competitive-ratio data point.
type Measurement struct {
	Strategy string
	Input    string
	N, D     int
	OPT, ALG int
	// Expired counts the requests the strategy let pass their deadlines
	// (Requests - ALG on complete runs).
	Expired int
	// Bound is the theoretical bound attached to the input (0 if none).
	Bound float64
}

// Ratio returns OPT/ALG (the empirical competitive ratio; +Inf if the
// strategy served nothing while OPT served something, 1 if both are zero).
func (m Measurement) Ratio() float64 {
	if m.ALG == 0 {
		if m.OPT == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(m.OPT) / float64(m.ALG)
}

func (m Measurement) String() string {
	return fmt.Sprintf("%s on %s (n=%d d=%d): OPT=%d ALG=%d ratio=%.4f bound=%.4f",
		m.Strategy, m.Input, m.N, m.D, m.OPT, m.ALG, m.Ratio(), m.Bound)
}

// MeasureChecked runs s over tr and compares with the offline optimum. On an
// invalid trace it returns the validation error, which names the first
// offending request.
func MeasureChecked(s core.Strategy, tr *core.Trace) (Measurement, error) {
	return measureChecked(s, tr, offline.Optimum)
}

// measureChecked is MeasureChecked with the optimum supplied by the caller:
// the worker pools pass one that is solved once per shared input.
func measureChecked(s core.Strategy, tr *core.Trace, optimum func(*core.Trace) int) (Measurement, error) {
	res, err := core.RunChecked(s, tr)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		Strategy: s.Name(),
		Input:    "trace",
		N:        tr.N,
		D:        tr.D,
		OPT:      optimum(tr),
		ALG:      res.Fulfilled,
		Expired:  res.Expired,
	}, nil
}

// MeasureConstruction runs s on an adversarial construction (fixed trace or
// adaptive source) and attaches the construction's bound.
func MeasureConstruction(c adversary.Construction, s core.Strategy) Measurement {
	return measureConstruction(c, s, offline.Optimum)
}

// measureConstruction is MeasureConstruction with the optimum of a fixed
// trace supplied by the caller. An adaptive source's trace depends on the
// strategy, so its optimum is always solved here, incrementally as the run
// generates it (RunAdaptiveStream).
func measureConstruction(c adversary.Construction, s core.Strategy, optimum func(*core.Trace) int) Measurement {
	var m Measurement
	if c.Source != nil {
		m, _ = RunAdaptiveStream(s, c.Source)
	} else {
		var err error
		if m, err = measureChecked(s, c.Trace, optimum); err != nil {
			panic(err)
		}
	}
	m.Input = c.Name
	m.Bound = c.Bound
	return m
}
