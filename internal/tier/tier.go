// Package tier implements the fast tier: the analytic model
// (microseconds per point) standing in for the statistical and
// structural simulators (tens of milliseconds to ~100ms per point)
// wherever a calibration certifies it, behind the experiment layer's
// batch API.
//
// An Evaluator answers each point in a region the calibration
// certifies from the analytic surrogate (analytic.Surrogate), tagged
// Source="surrogate", even when the store holds the point. Every other
// point escalates through exp.Points, the engine's plain memo → store
// → route → simulate path, so it is a genuine simulator result. An
// uncalibrated evaluator certifies nothing and escalates every point.
//
// Exact evaluation is not a tier: it is that engine path with no
// evaluator installed, which is what exp.Sims and exp.Structurals run
// on a context without one (exp.WithTier). Installing an Evaluator is
// how a caller opts into fast mode (soproc -tier fast, a /v1/sweep
// request with tier "fast").
//
// The certification contract: a surrogate-served value is wrong by at
// most the worst relative error the calibration observed in its region
// (Region.MaxRelErr), and a region whose worst error exceeds
// maxCertifiableRelErr serves nothing. The calibration harness lives in
// calibrate.go and the region table in calibration.go.
package tier

import (
	"context"
	"sync/atomic"

	"scaleout/internal/analytic"
	"scaleout/internal/exp"
	"scaleout/internal/sim"
)

// Mode names an evaluation tier: the tier field of a /v1/sweep
// request and soproc -tier. Only Fast installs an Evaluator.
type Mode int

const (
	// Exact returns genuine simulator results for every point, through
	// the engine's memo, store, router and simulators. It is the
	// default everywhere (the /v1/sweep tier field, soproc -tier).
	Exact Mode = iota
	// Fast serves certified points from the surrogate, tagged
	// Source="surrogate". Callers opt in explicitly.
	Fast
)

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

// Evaluator is the fast tier. It implements exp.Tier, so installing it
// on a context (exp.WithTier) reroutes every exp.Sims/exp.Structurals
// batch in the repository through it. Construct with New; an Evaluator
// is safe for concurrent use.
type Evaluator struct {
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

// New builds an evaluator from a calibration; nil means uncalibrated:
// no certified regions, so every point escalates.
func New(c *Calibration) *Evaluator {
	ev := &Evaluator{granularity: DefaultGranularity, regions: map[string]Region{}}
	if c != nil {
		c.normalize()
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
	// Scored counts every point the evaluator saw: fast-mode points,
	// since exact evaluation runs on the engine without it.
	// SurrogateServed were answered by the surrogate, and Escalated went
	// to the engine: memo, store, router or simulator.
	Scored          int64 `json:"scored" metric:"soproc_tier_scored_points_total" help:"every point the tiered evaluator received in fast mode"`
	SurrogateServed int64 `json:"surrogate_served" metric:"soproc_tier_surrogate_served_total" help:"points served from the analytic surrogate in fast mode"`
	Escalated       int64 `json:"escalated" metric:"soproc_tier_escalated_points_total" help:"points escalated to the engine: memo, store, replicas or simulators"`
	// EscalationRate is Escalated/Scored (0 when nothing was scored).
	EscalationRate float64 `json:"escalation_rate" metric:"-"`
	// Regions counts the loaded calibration's error regions.
	Regions int `json:"regions" metric:"soproc_tier_regions" help:"certified calibration regions loaded"`
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

// certified reports whether the calibration certifies regionKey, so
// its points are served from the surrogate: the region has samples and
// its worst observed error is within maxCertifiableRelErr.
func (ev *Evaluator) certified(regionKey string) bool {
	r, ok := ev.regions[regionKey]
	return ok && r.Samples > 0 && r.MaxRelErr <= maxCertifiableRelErr
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
	return evaluate(ctx, ev, simKind, cfgs)
}

// Structurals implements exp.Tier for structural-simulator batches.
func (ev *Evaluator) Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	return evaluate(ctx, ev, structuralKind, cfgs)
}

// evaluate is Sims for either simulator: it serves from the surrogate
// each point in a region the calibration certifies, and every other
// point escalates through exp.Points on the context's engine, so
// escalated points keep the engine's memo, store, single-flight and
// cluster routing. A configuration that does not canonicalize fails
// the batch before anything is served.
func evaluate[R any, C config[R, C]](ctx context.Context, ev *Evaluator, k kind[R, C], cfgs []C) ([]R, error) {
	ev.scored.Add(int64(len(cfgs)))
	ccs := make([]C, len(cfgs))
	for i, c := range cfgs {
		cc, err := c.Canonical()
		if err != nil {
			return nil, err
		}
		ccs[i] = cc
	}
	out := make([]R, len(cfgs))
	var idx []int
	var pts []exp.Point[R]
	hook := ev.decision.Load()
	for i, cc := range ccs {
		if !ev.certified(k.region(ev.granularity, cc)) {
			idx = append(idx, i)
			pts = append(pts, exp.SimulatorPoint[R, C]{Config: cfgs[i]})
			continue
		}
		out[i] = k.result(analytic.Surrogate(k.spec(cc)))
		ev.surrogateServed.Add(1)
		if hook != nil {
			(*hook)(cfgs[i].Key(), "surrogate")
		}
	}
	ev.escalated.Add(int64(len(pts)))
	if len(pts) > 0 {
		res, err := exp.Points(ctx, exp.FromContext(ctx), pts)
		if err != nil {
			return nil, err
		}
		for j, i := range idx {
			out[i] = res[j]
		}
	}
	return out, nil
}
