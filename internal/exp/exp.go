// Package exp is the experiment engine every sweep in this repository
// runs on: a fixed-size worker pool that fans independent sweep points
// out across GOMAXPROCS goroutines, returns results in deterministic
// input order, and memoizes each point by a canonical key of its
// configuration so identical points — the same baseline chip appears in
// several chapters' figures — are simulated exactly once per process.
//
// A sweep point is anything implementing Point: a cycle-simulator run
// (SimPoint), a structural-simulator run (StructuralPoint), or an
// arbitrary deterministic evaluation such as an analytic-model call
// (Func). Generators declare their points, hand them to an Engine, and
// assemble tables from the ordered results; they never loop over sim.Run
// inline. Because every underlying computation is deterministic, a
// parallel run is byte-identical to a serial (workers=1) run.
//
// The worker pool and memo themselves live in internal/exp/engine, one
// layer below the simulator, so that sim.RunSampled can fan samples out
// across the same pool; this package re-exports the engine surface and
// adds the typed Point API on top.
package exp

import (
	"context"
	"sync"
	"sync/atomic"

	"scaleout/internal/exp/engine"
	"scaleout/internal/sim"
)

// Engine is the parallel, memoizing sweep runner (engine.Engine). The
// zero value is not usable; construct with New. An Engine is safe for
// concurrent use by any number of goroutines; its memo is shared across
// all batches run on it for the life of the process.
type Engine = engine.Engine

// Stats is a snapshot of an engine's memo and work counters
// (engine.Stats).
type Stats = engine.Stats

// New returns an engine with the given worker-pool size and an
// unbounded memo; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine { return engine.New(workers) }

// NewBounded returns an engine whose memo holds at most capacity
// resident entries, evicting least-recently-used complete entries under
// pressure; capacity <= 0 means unbounded. In-flight and waited-on
// entries are pinned and never evicted, so single-flight semantics are
// unchanged. This is the constructor for long-running processes
// (cmd/soprocd); the one-shot CLIs use New.
func NewBounded(workers, capacity int) *Engine { return engine.NewBounded(workers, capacity) }

// Default returns the process-wide engine: GOMAXPROCS workers and a
// memo shared by everything that does not install its own engine.
func Default() *Engine { return engine.Default() }

// WithEngine returns a context carrying e; experiment code retrieves it
// with FromContext. This is how the CLI's -parallel flag and the
// serial-baseline tests select a pool size without threading an Engine
// through every generator signature.
func WithEngine(ctx context.Context, e *Engine) context.Context {
	return engine.WithEngine(ctx, e)
}

// FromContext returns the context's engine, or Default if none is set.
func FromContext(ctx context.Context) *Engine { return engine.FromContext(ctx) }

// Route is a per-key routing hook (engine.Route): install one with
// Engine.SetRoute and memo misses whose points carry a payload are
// offered to it — in practice, shipped to the cluster replica owning
// the key (internal/cluster) — before being computed locally.
type Route = engine.Route

// DisableRouting returns a context whose points always compute locally,
// even on an engine with a router installed; the serve layer marks
// coordinator-forwarded requests with it so peer cycles cannot loop.
func DisableRouting(ctx context.Context) context.Context {
	return engine.DisableRouting(ctx)
}

// IsCancellation reports whether err is a context cancellation or
// deadline rather than a genuine computation failure.
func IsCancellation(err error) bool { return engine.IsCancellation(err) }

// FirstError selects a batch's reportable error: the first genuine
// failure in input order or, if every error is a cancellation, the
// first cancellation — so a deterministic config error is never masked
// by the cancellations it triggered in sibling points. A non-nil wrap
// decorates the chosen error with its index (e.g. an experiment ID).
// It returns nil if every error is nil.
func FirstError(errs []error, wrap func(int, error) error) error {
	return engine.FirstError(errs, wrap)
}

// Point is one unit of experiment work: a canonical key plus the
// deterministic computation it identifies. Two points with equal non-empty
// keys must describe identical computations; the engine computes each
// distinct key at most once per process and serves later requests from
// the memo. An empty key disables memoization for that point.
type Point[R any] interface {
	Key() string
	Compute() (R, error)
}

// Routable is implemented by points that can run somewhere other than
// the local worker pool: RoutePayload returns a serializable
// description of the computation — for the built-in points, the
// configuration's sim.WireConfig — which the engine offers to its
// installed Route (Engine.SetRoute) on a memo miss. The engine calls
// RoutePayload only when it is about to offer the point to a router,
// never on a memo or store hit. A nil payload, or a point that does not
// implement Routable, always computes locally.
type Routable interface {
	RoutePayload() any
}

// SimulatorConfig is the contract a configuration type meets to run as
// a SimulatorPoint: a canonical memo key (Key), a self-describing
// wire payload for cluster routing (WirePayload), and the simulation
// itself (Run). Both sim.Config and sim.StructuralConfig satisfy it.
type SimulatorConfig[R any] interface {
	Key() string
	WirePayload() any
	Run() (R, error)
}

// SimulatorPoint is the one engine point for every simulator kind —
// the generic form behind SimPoint and StructuralPoint. Its key is the
// defaults-applied configuration's canonical key, so two
// configurations that differ only in fields the simulator would default
// identically (e.g. an explicit crossbar vs the zero-value default)
// share a key.
type SimulatorPoint[R any, C SimulatorConfig[R]] struct{ Config C }

// Key is the defaults-applied configuration's memo key.
func (p SimulatorPoint[R, C]) Key() string { return p.Config.Key() }

// Compute runs the simulation.
func (p SimulatorPoint[R, C]) Compute() (R, error) { return p.Config.Run() }

// RoutePayload returns the configuration's versioned wire form
// (sim.WireConfig) — the single representation a cluster coordinator
// ships to the replica owning the key — or a sim.Unroutable marker when
// the configuration cannot be encoded, so the coordinator can count the
// decline instead of it vanishing into a nil payload.
func (p SimulatorPoint[R, C]) RoutePayload() any { return p.Config.WirePayload() }

// SimPoint runs the cycle-level statistical simulator on one
// configuration.
type SimPoint = SimulatorPoint[sim.Result, sim.Config]

// StructuralPoint runs the structural simulator on one configuration.
type StructuralPoint = SimulatorPoint[sim.StructuralResult, sim.StructuralConfig]

// Func adapts an arbitrary deterministic computation — an analytic-model
// evaluation, a chip composition, a TCO build — into a Point. K must
// canonically identify the computation; leave it empty to run the point
// unmemoized (the usual choice for cheap analytic evaluations). P, if
// set, makes the point routable (Routable): it must describe the same
// computation as F, and is what a cluster router ships to a replica.
type Func[R any] struct {
	K string
	P any
	F func() (R, error)
}

// Key returns the caller-chosen key.
func (p Func[R]) Key() string { return p.K }

// Compute invokes the wrapped function.
func (p Func[R]) Compute() (R, error) { return p.F() }

// RoutePayload returns the caller-attached payload (nil means the point
// always computes locally).
func (p Func[R]) RoutePayload() any { return p.P }

// Points evaluates every point on e's worker pool and returns results in
// input order. The first error (in input order, preferring genuine
// failures over cancellations) aborts the batch; points already running
// finish and are memoized for later callers.
//
// Points claims every keyed point on the calling goroutine
// (Engine.Claim), so a memo hit resolves there and starts nothing. Two
// kinds of work then run on at most Workers() goroutines, the caller
// among them, each pulling the next task: the store probes of the keys
// the batch now owns (Flight.Load), so a large warm batch decodes its
// stored results in parallel, and the unkeyed points, which each hold a
// worker slot while they run and are never routed. A goroutine of its
// own starts only for a keyed point that must be routed or computed;
// waits on duplicates in flight elsewhere resolve on the calling
// goroutine once everything else is running.
//
// A point's Compute must not call back into the same engine: it runs
// while holding a worker slot, so nested Points/Sims/Map calls can
// exhaust the pool and deadlock. Declare the full sweep up front
// instead.
func Points[R any](ctx context.Context, e *Engine, pts []Point[R]) ([]R, error) {
	// A genuine failure cancels the batch's context so queued points
	// stop at acquire instead of burning workers on a doomed batch.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]R, len(pts))
	errs := make([]error, len(pts))
	set := func(i int, v any, err error) {
		if err != nil {
			errs[i] = err
			if !engine.IsCancellation(err) {
				cancel()
			}
			return
		}
		out[i] = v.(R)
	}
	var wg sync.WaitGroup
	run := func(i int, f *engine.Flight) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := resolve(ctx, f, pts[i])
			set(i, v, err)
		}()
	}
	// A task is an unkeyed point (nil flight) or an owned flight's store
	// probe; a wait is a flight on a key in flight elsewhere.
	type task struct {
		i int
		f *engine.Flight
	}
	var tasks, waits []task
	probe := e.HasStore()
	for i, p := range pts {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		key := p.Key()
		if key == "" {
			tasks = append(tasks, task{i, nil})
			continue
		}
		f, v, err := e.Claim(key)
		switch {
		case f == nil:
			set(i, v, err)
		case f.Waiting():
			waits = append(waits, task{i, f})
		case probe:
			tasks = append(tasks, task{i, f})
		default:
			run(i, f)
		}
	}
	if len(tasks) > 0 {
		var next atomic.Int64
		pull := func() {
			for {
				k := int(next.Add(1)) - 1
				if k >= len(tasks) {
					return
				}
				t := tasks[k]
				if t.f == nil {
					v, err := e.DoRouted(ctx, "", nil, computeFunc(pts[t.i]))
					set(t.i, v, err)
				} else if v, ok := t.f.Load(); ok {
					set(t.i, v, nil)
				} else {
					run(t.i, t.f)
				}
			}
		}
		helpers := min(e.Workers(), len(tasks)) - 1
		wg.Add(helpers)
		for h := 0; h < helpers; h++ {
			go func() {
				defer wg.Done()
				pull()
			}()
		}
		pull()
	}
	for _, w := range waits {
		v, err := resolve(ctx, w.f, pts[w.i])
		set(w.i, v, err)
	}
	wg.Wait()
	if err := FirstError(errs, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// resolve finishes a point's flight: a wait on an in-flight duplicate,
// or a miss routable points first offer to the engine's router. The
// payload is handed over unevaluated: the engine builds it only for a
// point it is about to route.
func resolve[R any](ctx context.Context, f *engine.Flight, p Point[R]) (any, error) {
	var payload func() any
	if rp, ok := p.(Routable); ok {
		payload = rp.RoutePayload
	}
	return f.Resolve(ctx, payload, computeFunc(p))
}

// computeFunc adapts a point's typed Compute to the engine's untyped
// computation.
func computeFunc[R any](p Point[R]) func() (any, error) {
	return func() (any, error) { return p.Compute() }
}

// Sims evaluates a batch of cycle-simulator configurations on the
// context's engine (FromContext). A context carrying a tiered
// evaluator (WithTier) evaluates the batch through it instead; the
// default path runs every point on the simulator.
func Sims(ctx context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	if t := TierFromContext(ctx); t != nil {
		return t.Sims(ctx, cfgs)
	}
	pts := make([]Point[sim.Result], len(cfgs))
	for i, c := range cfgs {
		pts[i] = SimPoint{c}
	}
	return Points(ctx, FromContext(ctx), pts)
}

// Structurals evaluates a batch of structural-simulator configurations
// on the context's engine (FromContext). Like Sims, it defers to the
// context's tiered evaluator when one is installed (WithTier).
func Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	if t := TierFromContext(ctx); t != nil {
		return t.Structurals(ctx, cfgs)
	}
	pts := make([]Point[sim.StructuralResult], len(cfgs))
	for i, c := range cfgs {
		pts[i] = StructuralPoint{c}
	}
	return Points(ctx, FromContext(ctx), pts)
}

// Map evaluates fn over items on e's worker pool, unmemoized, returning
// results in input order — the fan-out primitive for analytic-model
// sweeps whose points are cheap but numerous.
func Map[T, R any](ctx context.Context, e *Engine, items []T, fn func(T) (R, error)) ([]R, error) {
	pts := make([]Point[R], len(items))
	for i, item := range items {
		item := item
		pts[i] = Func[R]{F: func() (R, error) { return fn(item) }}
	}
	return Points(ctx, e, pts)
}
