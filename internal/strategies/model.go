package strategies

import (
	"fmt"

	"reqsched/internal/core"
)

// Service-model support declarations (core.ModelSupporter). Two classes:
//
//   - Scan-based strategies route exclusively through Window.Free /
//     FreeSlotsFor, which are occupancy-aware, so they are correct under any
//     service model with no further changes.
//
//   - Matching-based strategies (the paper's A_* family) plan joint schedules
//     over future window slots through winGraph. At hold=1 each (resource,
//     round) slot expands into cap independent unit vertices and the matching
//     semantics carry over exactly; at hold>1 a planned future start would
//     have to block neighboring rounds' slots, which a bipartite matching
//     cannot express, so those are rejected rather than silently mis-planned.
//
// Strategies implementing neither (the local message-passing family, the
// adaptive harness) are unit-model-only by core.CheckModelSupport's default.

// holdOne accepts any capacity but rejects hold > 1 — the matching-based
// strategy gate.
func holdOne(m core.ServiceModel) error {
	if m.Hold != 1 {
		return fmt.Errorf("matching over future slots supports hold=1 only, not %s", m)
	}
	return nil
}

// SupportsModel implements core.ModelSupporter: random-fit scans free slots.
func (*RandomFit) SupportsModel(core.ServiceModel) error { return nil }

// SupportsModel implements core.ModelSupporter: ranking scans free slots.
func (*Ranking) SupportsModel(core.ServiceModel) error { return nil }

// SupportsModel implements core.ModelSupporter: EDF serves only currently
// free resources (at most one service start per resource per round, whatever
// the capacity).
func (*EDF) SupportsModel(core.ServiceModel) error { return nil }

// SupportsModel implements core.ModelSupporter.
func (*FixWeighted) SupportsModel(m core.ServiceModel) error { return holdOne(m) }

// SupportsModel implements core.ModelSupporter.
func (*EagerWeighted) SupportsModel(m core.ServiceModel) error { return holdOne(m) }

// The policy Composite delegates its own support decision to its router, so
// these gates are the paper strategies' gates.

// SupportsModel implements the policy router support check.
func (*FixRouter) SupportsModel(m core.ServiceModel) error { return holdOne(m) }

// SupportsModel implements the policy router support check.
func (*CurrentRouter) SupportsModel(m core.ServiceModel) error { return holdOne(m) }

// SupportsModel implements the policy router support check.
func (*FixBalanceRouter) SupportsModel(m core.ServiceModel) error { return holdOne(m) }

// SupportsModel implements the policy router support check.
func (*EagerRouter) SupportsModel(m core.ServiceModel) error { return holdOne(m) }

// SupportsModel implements the policy router support check.
func (*BalanceRouter) SupportsModel(m core.ServiceModel) error { return holdOne(m) }
