// Package tier implements surrogate-first tiered evaluation: the
// repository's three evaluators — the analytic model (microseconds),
// the statistical simulator (tens of milliseconds), and the structural
// simulator (up to ~100ms/point) — arranged as one speed hierarchy
// behind the experiment layer's batch API.
//
// What happens to a batch depends on the tier mode:
//
//   - Exact (the default): every point escalates through exp.Points,
//     the engine's plain memo → store → route → simulate path, so every
//     returned value is a genuine simulator result. Repeated points are
//     served by the engine's memo and, on an engine with a persistent
//     store, by the results an earlier run (soproc -store, or
//     cmd/calibrate -store) wrote there.
//
//   - Fast (explicit opt-in): a batch holding a point in a region the
//     calibration certifies is scored by the analytic surrogate
//     (analytic.Surrogate). Certified points not within their error
//     band of the caller's decision boundary (Decision) are answered
//     from the surrogate and tagged Source="surrogate", even when the
//     store holds them; boundary points and uncertified regions
//     escalate exactly as above.
//
// The certification contract: in fast mode a surrogate-served value is
// wrong by at most the region's calibrated MaxRelErr × Safety, and any
// point whose answer could change the caller's decision under that
// bound has escalated — so figures regenerated in tiered mode are
// byte-identical to full simulation wherever the band says escalation
// fires. The band math and the calibration harness live in
// calibration.go and calibrate.go; boundary predicates in decision.go.
package tier

import (
	"context"
	"math"
	"sync/atomic"

	"scaleout/internal/analytic"
	"scaleout/internal/exp"
	"scaleout/internal/sim"
)

// Mode selects how much the evaluator trusts the surrogate.
type Mode int

const (
	// Exact returns genuine simulator results for every point, through
	// the engine's memo, store, router and simulators. It is the
	// default everywhere (the /v1/sweep tier field, soproc -tier).
	Exact Mode = iota
	// Fast serves certified interior points from the surrogate, tagged
	// Source="surrogate". Callers opt in explicitly.
	Fast
)

// String returns the mode's wire name ("exact" or "fast").
func (m Mode) String() string {
	if m == Fast {
		return "fast"
	}
	return "exact"
}

// ParseMode parses a wire-form tier name; the empty string is Exact
// (the documented default of the sweep API's tier field).
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "", "exact":
		return Exact, true
	case "fast":
		return Fast, true
	default:
		return Exact, false
	}
}

type modeKey struct{}

// WithMode returns a context that overrides the evaluator's default
// mode for batches evaluated under it — how the serve layer applies a
// per-request tier field to the daemon's shared evaluator.
func WithMode(ctx context.Context, m Mode) context.Context {
	return context.WithValue(ctx, modeKey{}, m)
}

// modeFrom returns the context's mode override, or fallback.
func modeFrom(ctx context.Context, fallback Mode) Mode {
	if m, ok := ctx.Value(modeKey{}).(Mode); ok {
		return m
	}
	return fallback
}

// Evaluator is the tiered evaluator. It implements exp.Tier, so
// installing it on a context (exp.WithTier) reroutes every
// exp.Sims/exp.Structurals batch in the repository through the tiers.
// Construct with New; an Evaluator is safe for concurrent use.
type Evaluator struct {
	mode        Mode
	safety      float64
	granularity int
	regions     map[string]Region

	scored          atomic.Int64
	surrogateServed atomic.Int64
	escalated       atomic.Int64

	// decision, when set (SetDecisionHook), observes every point the
	// evaluator answers without touching the engine: the surrogate-
	// served points. Escalated points reach the engine and are
	// observed there.
	decision atomic.Pointer[DecisionHook]
}

// DecisionHook receives one record per point the evaluator served
// itself, with the point's canonical key and the serving tier as
// source: "surrogate" (analytic model, fast mode). Hooks must be fast
// and non-blocking; they run synchronously on the evaluation path.
type DecisionHook func(key, source string)

// SetDecisionHook installs fn as the evaluator's decision observer; a
// nil fn removes it.
func (ev *Evaluator) SetDecisionHook(fn DecisionHook) {
	if fn == nil {
		ev.decision.Store(nil)
		return
	}
	ev.decision.Store(&fn)
}

// New builds an evaluator from a calibration (nil means uncalibrated:
// no certified regions, so every point escalates in either mode) with
// the given default mode.
func New(c *Calibration, mode Mode) *Evaluator {
	ev := &Evaluator{
		mode:        mode,
		safety:      DefaultSafety,
		granularity: DefaultGranularity,
		regions:     map[string]Region{},
	}
	if c != nil {
		c.normalize()
		ev.safety = c.Safety
		ev.granularity = c.Granularity
		for _, r := range c.Regions {
			ev.regions[r.Key] = r
		}
	}
	return ev
}

// Stats is a snapshot of the evaluator's per-tier point counters; the
// JSON field names are the /statsz tier section's wire format.
type Stats struct {
	// Scored counts every point the evaluator saw. SurrogateServed were
	// answered by the surrogate in fast mode, and Escalated went to the
	// engine: memo, store, router or simulator.
	Scored          int64 `json:"scored"`
	SurrogateServed int64 `json:"surrogate_served"`
	Escalated       int64 `json:"escalated"`
	// EscalationRate is Escalated/Scored (0 when nothing was scored).
	EscalationRate float64 `json:"escalation_rate"`
	// Regions counts the loaded calibration's error regions.
	Regions int `json:"regions"`
}

// Stats snapshots the evaluator's counters.
func (ev *Evaluator) Stats() Stats {
	s := Stats{
		Scored:          ev.scored.Load(),
		SurrogateServed: ev.surrogateServed.Load(),
		Escalated:       ev.escalated.Load(),
		Regions:         len(ev.regions),
	}
	if s.Scored > 0 {
		s.EscalationRate = float64(s.Escalated) / float64(s.Scored)
	}
	return s
}

// certified reports whether the calibration certifies regionKey: its
// points carry a finite escalation band and are eligible for surrogate
// serving in fast mode.
func (ev *Evaluator) certified(regionKey string) bool {
	r, ok := ev.regions[regionKey]
	return ok && r.Samples > 0 && r.MaxRelErr <= maxCertifiableRelErr
}

// band returns the certified escalation band half-width around a
// surrogate score: the region's worst observed relative error, times
// the safety margin, times the score's magnitude. An unknown or
// uncertifiable region returns +Inf — its points always escalate.
func (ev *Evaluator) band(regionKey string, score float64) float64 {
	if !ev.certified(regionKey) {
		return math.Inf(1)
	}
	return ev.regions[regionKey].MaxRelErr * ev.safety * math.Abs(score)
}

// config is a simulator configuration the evaluator can escalate
// (exp.SimulatorConfig) and canonicalize: sim.Config or
// sim.StructuralConfig.
type config[R, C any] interface {
	exp.SimulatorConfig[R]
	Canonical() (C, error)
}

// kind adapts one simulator's configuration and result types to the
// surrogate: the error region and surrogate input of a canonical
// configuration, an estimate shaped as the simulator's result, and the
// AppIPC a result is scored on.
type kind[R, C any] struct {
	region func(granularity int, cc C) string
	spec   func(cc C) analytic.SurrogateSpec
	result func(analytic.Estimate) R
	appIPC func(R) float64
}

var (
	simKind = kind[sim.Result, sim.Config]{
		region: simRegionKey,
		spec:   simSpec,
		result: surrogateSimResult,
		appIPC: func(r sim.Result) float64 { return r.AppIPC },
	}
	structuralKind = kind[sim.StructuralResult, sim.StructuralConfig]{
		region: structuralRegionKey,
		spec:   structuralSpec,
		result: surrogateStructuralResult,
		appIPC: func(r sim.StructuralResult) float64 { return r.AppIPC },
	}
)

// simSpec maps a canonical statistical configuration onto the
// surrogate's input.
func simSpec(cc sim.Config) analytic.SurrogateSpec {
	return analytic.SurrogateSpec{
		Workload:    cc.Workload,
		Design:      analytic.DesignFor(cc.CoreType, cc.Cores, cc.LLCMB, cc.Net),
		SWScaling:   !cc.DisableSWScaling,
		MemChannels: cc.MemChannels,
	}
}

// structuralSpec maps a canonical structural configuration onto the
// surrogate's input; the MSHR bound is the structural-only knob the
// surrogate models (analytic.Surrogate).
func structuralSpec(cc sim.StructuralConfig) analytic.SurrogateSpec {
	return analytic.SurrogateSpec{
		Workload:    cc.Workload,
		Design:      analytic.DesignFor(cc.CoreType, cc.Cores, cc.LLCMB, cc.Net),
		MSHRs:       cc.L1MSHRs,
		SWScaling:   true,
		MemChannels: cc.MemChannels,
	}
}

// surrogateSimResult shapes a surrogate estimate as the statistical
// simulator's result type, tagged so callers can tell it apart.
func surrogateSimResult(est analytic.Estimate) sim.Result {
	return sim.Result{
		AppIPC:     est.AppIPC,
		PerCoreIPC: est.PerCoreIPC,
		OffChipGBs: est.OffChipGBs,
		Source:     "surrogate",
	}
}

// surrogateStructuralResult is surrogateSimResult for the structural
// result type, with the surrogate's emergent-cache predictions filled.
func surrogateStructuralResult(est analytic.Estimate) sim.StructuralResult {
	return sim.StructuralResult{
		Result:     surrogateSimResult(est),
		L1IMPKI:    est.L1IMPKI,
		L1DMPKI:    est.L1DMPKI,
		LLCMissPct: est.LLCMissPct,
	}
}

// Sims implements exp.Tier for statistical-simulator batches.
func (ev *Evaluator) Sims(ctx context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	out, _, err := ev.SimsDecided(ctx, cfgs, nil)
	return out, err
}

// Structurals implements exp.Tier for structural-simulator batches.
func (ev *Evaluator) Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	out, _, err := ev.StructuralsDecided(ctx, cfgs, nil)
	return out, err
}

// SimsDecided evaluates a statistical batch under a decision boundary
// and also reports which points escalated: in fast mode, those within
// their band of the boundary or in an uncertified region; in exact
// mode, every point. A nil decision means the sweep feeds no boundary:
// in fast mode every certified point is then surrogate-served; in
// exact mode the decision is irrelevant to results.
func (ev *Evaluator) SimsDecided(ctx context.Context, cfgs []sim.Config, d Decision) ([]sim.Result, []bool, error) {
	return evaluate(ctx, ev, simKind, cfgs, d)
}

// StructuralsDecided is SimsDecided for the structural simulator.
func (ev *Evaluator) StructuralsDecided(ctx context.Context, cfgs []sim.StructuralConfig, d Decision) ([]sim.StructuralResult, []bool, error) {
	return evaluate(ctx, ev, structuralKind, cfgs, d)
}

// evaluate is SimsDecided for either simulator: fast mode serves what
// the calibration certifies, and every other point escalates through
// exp.Points on the context's engine, so escalated points keep the
// engine's memo, store, single-flight and cluster routing.
func evaluate[R any, C config[R, C]](ctx context.Context, ev *Evaluator, k kind[R, C], cfgs []C, d Decision) ([]R, []bool, error) {
	ev.scored.Add(int64(len(cfgs)))
	out := make([]R, len(cfgs))
	escalated := make([]bool, len(cfgs))
	for i := range escalated {
		escalated[i] = true
	}
	if modeFrom(ctx, ev.mode) == Fast {
		if err := serveCertified(ev, k, cfgs, d, out, escalated); err != nil {
			return nil, nil, err
		}
	}
	var idx []int
	var pts []exp.Point[R]
	for i, esc := range escalated {
		if esc {
			idx = append(idx, i)
			pts = append(pts, exp.SimulatorPoint[R, C]{Config: cfgs[i]})
		}
	}
	ev.escalated.Add(int64(len(pts)))
	if len(pts) > 0 {
		res, err := exp.Points(ctx, exp.FromContext(ctx), pts)
		if err != nil {
			return nil, nil, err
		}
		for j, i := range idx {
			out[i] = res[j]
		}
	}
	return out, escalated, nil
}

// serveCertified answers from the surrogate each point the calibration
// certifies and the decision leaves interior, and clears its escalated
// flag. A batch with no point in a certified region is not scored: the
// surrogate could serve none of it, so it costs what exact mode does.
func serveCertified[R any, C config[R, C]](ev *Evaluator, k kind[R, C], cfgs []C, d Decision, out []R, escalated []bool) error {
	n := len(cfgs)
	ccs := make([]C, n)
	regions := make([]string, n)
	anyCertified := false
	for i, c := range cfgs {
		cc, err := c.Canonical()
		if err != nil {
			return err
		}
		ccs[i] = cc
		regions[i] = k.region(ev.granularity, cc)
		anyCertified = anyCertified || ev.certified(regions[i])
	}
	if !anyCertified {
		return nil
	}
	ests := make([]analytic.Estimate, n)
	scores := make([]float64, n)
	bands := make([]float64, n)
	for i, cc := range ccs {
		ests[i] = analytic.Surrogate(k.spec(cc))
		scores[i] = ests[i].AppIPC
		bands[i] = ev.band(regions[i], scores[i])
	}
	boundary := make([]bool, n)
	if d != nil {
		boundary = d.Escalate(scores, bands)
	}
	hook := ev.decision.Load()
	for i := range cfgs {
		if boundary[i] || math.IsInf(bands[i], 1) {
			continue
		}
		out[i] = k.result(ests[i])
		escalated[i] = false
		ev.surrogateServed.Add(1)
		if hook != nil {
			(*hook)(cfgs[i].Key(), "surrogate")
		}
	}
	return nil
}
