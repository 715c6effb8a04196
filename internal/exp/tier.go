package exp

import (
	"context"

	"scaleout/internal/sim"
)

// Tier is a tiered evaluator for simulator batches: an implementation
// (internal/tier's fast tier) may answer points from the calibrated
// analytic surrogate, escalating the rest to the engine. Sims and
// Structurals consult the context's Tier (WithTier) before fanning
// points out, so every figure generator and sweep in the repository
// becomes tier-aware without changing its code; with no Tier installed
// they run the engine's exact path. A Tier can also observe a sweep
// without changing it: the calibration harness installs one that
// samples the surrogate's error on every point.
//
// The contract mirrors Sims/Structurals: results in input order, first
// error aborts the batch. An implementation escalates through
// Points/SimPoint/StructuralPoint (never back through Sims/Structurals,
// which would recurse), so escalated points keep the engine's memo,
// store, single-flight, and cluster routing semantics. Persistent
// results belong to the engine's store, not to a Tier.
type Tier interface {
	// Sims evaluates statistical-simulator configurations.
	Sims(ctx context.Context, cfgs []sim.Config) ([]sim.Result, error)
	// Structurals evaluates structural-simulator configurations.
	Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error)
}

type tierKey struct{}

// WithTier returns a context whose Sims/Structurals batches are
// evaluated through t. This is how `soproc -tier fast` and a
// `"tier": "fast"` sweep request install the fast-tier evaluator
// underneath unmodified callers; a nil t removes an inherited tier.
func WithTier(ctx context.Context, t Tier) context.Context {
	return context.WithValue(ctx, tierKey{}, t)
}

// TierFromContext returns the context's tiered evaluator, or nil if
// batches should go straight to the simulators.
func TierFromContext(ctx context.Context) Tier {
	t, _ := ctx.Value(tierKey{}).(Tier)
	return t
}
