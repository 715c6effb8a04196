package tier

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"scaleout/internal/analytic"
	"scaleout/internal/exp"
	"scaleout/internal/exp/engine"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Options parameterizes a calibration run. The grid axes sample the
// (workload, core count, LLC, NoC) space; every grid point runs on both
// simulators, and each contributes its surrogate error to its region.
type Options struct {
	// Workloads defaults to the full calibrated suite.
	Workloads []workload.Workload
	// Cores defaults to {16, 32, 64}; LLCMB to {2, 4, 8}; Nets to
	// {crossbar, mesh}.
	Cores []int
	LLCMB []float64
	Nets  []noc.Kind

	// Granularity selects the region partition (RegionKey); zero takes
	// DefaultGranularity.
	Granularity int

	// Workers sizes the calibration engine's pool (0 = GOMAXPROCS).
	Workers int

	// Store, when set, is the calibration engine's persistent result
	// store: points already on disk are sampled without re-simulating,
	// and every point the harness does simulate is written through, so
	// later -store runs (and re-calibrations) serve them from disk.
	Store engine.Store

	// Suites, when set, runs under the recording tier after the grid:
	// every sim/structural point it evaluates (through the experiment
	// layer) contributes an error sample. Pass a closure over
	// figures.RunAllContext to sample the entire figure suite; with a
	// Store, that run also leaves every figure point on disk, so a
	// later -store regeneration serves the suite without simulating.
	Suites func(ctx context.Context) error
}

func (o *Options) defaults() {
	if len(o.Workloads) == 0 {
		o.Workloads = workload.Suite()
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{16, 32, 64}
	}
	if len(o.LLCMB) == 0 {
		o.LLCMB = []float64{2, 4, 8}
	}
	if len(o.Nets) == 0 {
		o.Nets = []noc.Kind{noc.Crossbar, noc.Mesh}
	}
	if o.Granularity <= 0 {
		o.Granularity = DefaultGranularity
	}
}

// Calibrate runs the error-bounding harness: the grid, then the
// optional suites, on a fresh parallel engine whose store is
// opts.Store, under a recording tier that samples the surrogate's
// error on each distinct point. The samples fold, in key order, into
// the per-region error table, so the result does not depend on
// scheduling. The run pays full simulator cost for every point the
// store does not already hold.
func Calibrate(ctx context.Context, opts Options) (*Calibration, error) {
	opts.defaults()
	eng := exp.New(opts.Workers)
	if opts.Store != nil {
		eng.SetStore(opts.Store)
	}
	rec := &recorder{granularity: opts.Granularity, samples: map[string]errSample{}}
	// The recorder replaces any inherited tier: the observations must
	// be the simulators' own.
	rctx := exp.WithTier(exp.WithEngine(ctx, eng), rec)

	var simCfgs []sim.Config
	var structCfgs []sim.StructuralConfig
	for _, w := range opts.Workloads {
		for _, cores := range opts.Cores {
			for _, llc := range opts.LLCMB {
				for _, netKind := range opts.Nets {
					net := noc.New(netKind, cores)
					simCfgs = append(simCfgs, sim.Config{
						Workload: w, CoreType: tech.OoO, Cores: cores, LLCMB: llc, Net: net,
					})
					structCfgs = append(structCfgs, sim.StructuralConfig{
						Workload: w, CoreType: tech.OoO, Cores: cores, LLCMB: llc, Net: net,
					})
				}
			}
		}
	}
	if _, err := exp.Sims(rctx, simCfgs); err != nil {
		return nil, fmt.Errorf("tier: calibration grid (sim): %w", err)
	}
	if _, err := exp.Structurals(rctx, structCfgs); err != nil {
		return nil, fmt.Errorf("tier: calibration grid (structural): %w", err)
	}
	if opts.Suites != nil {
		if err := opts.Suites(rctx); err != nil {
			return nil, fmt.Errorf("tier: calibration suites: %w", err)
		}
	}
	return rec.calibration(), nil
}

// recorder is the exp.Tier Calibrate runs under. It resolves each batch
// through exp.Points on the calibration engine, then samples the
// surrogate's relative AppIPC error on every point, once per distinct
// key: a repeated point must not weigh twice in its region.
type recorder struct {
	granularity int

	mu      sync.Mutex
	samples map[string]errSample // by point key
}

// errSample is one point's surrogate error and the region it falls in.
type errSample struct {
	region string
	relErr float64
}

// Sims implements exp.Tier.
func (r *recorder) Sims(ctx context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	return record(ctx, r, simKind, cfgs)
}

// Structurals implements exp.Tier.
func (r *recorder) Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	return record(ctx, r, structuralKind, cfgs)
}

// record is recorder.Sims for either simulator.
func record[R any, C config[R, C]](ctx context.Context, r *recorder, k kind[R, C], cfgs []C) ([]R, error) {
	pts := make([]exp.Point[R], len(cfgs))
	for i, c := range cfgs {
		pts[i] = exp.SimulatorPoint[R, C]{Config: c}
	}
	res, err := exp.Points(ctx, exp.FromContext(ctx), pts)
	if err != nil {
		return nil, err
	}
	samples := make(map[string]errSample, len(cfgs))
	for i, c := range cfgs {
		cc, err := c.Canonical()
		if err != nil {
			return nil, err
		}
		predicted := analytic.Surrogate(k.spec(cc)).AppIPC
		actual := k.appIPC(res[i])
		relErr := math.Inf(1)
		if actual != 0 {
			relErr = math.Abs(predicted-actual) / math.Abs(actual)
		}
		samples[c.Key()] = errSample{region: k.region(r.granularity, cc), relErr: relErr}
	}
	r.mu.Lock()
	for key, s := range samples {
		r.samples[key] = s
	}
	r.mu.Unlock()
	return res, nil
}

// calibration folds the samples into the region table in key order.
func (r *recorder) calibration() *Calibration {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.samples))
	for key := range r.samples {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	regions := map[string]*Region{}
	for _, key := range keys {
		s := r.samples[key]
		reg := regions[s.region]
		if reg == nil {
			reg = &Region{Key: s.region}
			regions[s.region] = reg
		}
		reg.Samples++
		reg.MeanRelErr += s.relErr // the sum until every sample is in
		if s.relErr > reg.MaxRelErr {
			reg.MaxRelErr = s.relErr
		}
	}
	cal := &Calibration{Granularity: r.granularity}
	for _, reg := range regions {
		reg.MeanRelErr /= float64(reg.Samples)
		cal.Regions = append(cal.Regions, *reg)
	}
	cal.normalize()
	return cal
}
