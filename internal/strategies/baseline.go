package strategies

import (
	"math/rand"

	"reqsched/internal/core"
)

// FirstFit is the simplest sensible baseline: each arrival is assigned
// immediately to its first free slot (alternatives in listed order, earliest
// round first) and never rescheduled. It is a maximal-matching strategy like
// A_fix but without the "maximum over the new requests" guarantee, so it is
// strictly weaker; benchmarks use it as the floor.
type FirstFit struct{}

// NewFirstFit returns the first-fit baseline.
func NewFirstFit() *FirstFit { return &FirstFit{} }

// Name implements core.Strategy.
func (*FirstFit) Name() string { return "first_fit" }

// Begin implements core.Strategy.
func (*FirstFit) Begin(n, d int) {}

// Round implements core.Strategy.
func (*FirstFit) Round(ctx *core.RoundContext) {
	for _, r := range ctx.Arrivals {
		if res, round, ok := ctx.W.FirstFreeSlot(r); ok {
			ctx.W.Assign(r, res, round)
		}
	}
}

// RandomFit assigns each arrival to a uniformly random free slot in its
// window, never rescheduling. Seeded and deterministic per run; used in the
// tie-breaking ablation to show how much of each adversarial lower bound
// depends on the adversary predicting the implementation's choices.
type RandomFit struct {
	seed int64
	rng  *rand.Rand
}

// NewRandomFit returns a random-fit baseline with the given seed.
func NewRandomFit(seed int64) *RandomFit { return &RandomFit{seed: seed} }

// Name implements core.Strategy.
func (*RandomFit) Name() string { return "random_fit" }

// Begin implements core.Strategy.
func (s *RandomFit) Begin(n, d int) { s.rng = rand.New(rand.NewSource(s.seed)) }

// Round implements core.Strategy.
func (s *RandomFit) Round(ctx *core.RoundContext) {
	for _, r := range ctx.Arrivals {
		if slots := ctx.W.FreeSlotsFor(r); len(slots) > 0 {
			pick := slots[s.rng.Intn(len(slots))]
			ctx.W.Assign(r, pick.Res, pick.Round)
		}
	}
}
