package main

import (
	"context"
	"fmt"

	"scaleout/internal/analytic"
	"scaleout/internal/chip"
	"scaleout/internal/core"
	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// runChecks prints the model-vs-target validation tables. The analytic
// sections are microsecond-cheap and run inline; the simulator
// cross-checks fan out through the experiment engine, so repeated
// configurations are simulated once and the loops use every worker.
func runChecks(parallel int) error {
	ws := workload.Suite()
	ctx := exp.WithEngine(context.Background(), exp.New(parallel))

	// Fig 2.1: conventional core IPC, 4 cores, 4MB? use their sim config: 4 cores 4MB crossbar
	fmt.Println("== Fig2.1-ish: per-workload conventional IPC (4c,4MB,xbar)")
	for _, w := range ws {
		d := analytic.NewDesign(tech.Conventional, 4, 4, noc.Crossbar)
		fmt.Printf("  %-16s %.2f\n", w.Name, analytic.Evaluate(&w, d).PerCoreIPC)
	}
	fmt.Println("== Catalog 40nm (target PD: conv .026 tiledO .060 llcO .084 IR .086 idealO .101 SO-O .092 | tiledI .099 llcI .131 IRI .145 idealI .167 SO-I .155)")
	for _, s := range chip.Catalog(tech.N40(), ws) {
		fmt.Printf("  %-28s PD %.3f cores %3d llc %4.0f MC %d die %5.0f pow %4.0f ppw %.2f\n",
			s.Name(), s.PD(), s.Cores, s.LLCMB, s.MemChannels, s.DieArea(), s.Power(), s.PerfPerWatt())
	}
	fmt.Println("== Catalog 20nm (targets: conv .067 tiledO .206 llcO .258 IR .294 ideal .366 SO .339 | tiledI .227 llcI .360 IRI .362 idealI .518 SO-I .441)")
	for _, s := range chip.Catalog(tech.N20(), ws) {
		fmt.Printf("  %-28s PD %.3f cores %3d llc %4.0f MC %d die %5.0f pow %4.0f ppw %.2f\n",
			s.Name(), s.PD(), s.Cores, s.LLCMB, s.MemChannels, s.DieArea(), s.Power(), s.PerfPerWatt())
	}
	fmt.Println("== Pod sweep OoO 40nm (expect opt 32c/4MB xbar, 16c/4MB within 5%)")
	pts := core.Sweep(core.SweepSpace{Core: tech.OoO, MaxCores: 64, LLCSizes: []float64{1, 2, 4, 8}, Nets: []noc.Kind{noc.Crossbar}}, tech.N40(), ws)
	for _, p := range pts {
		if p.Pod.Cores >= 8 {
			fmt.Printf("  %-10s PD %.3f\n", p.Pod, p.PD)
		}
	}
	fmt.Println("== Pod sweep IO 40nm (expect opt 32c/2MB xbar)")
	pts = core.Sweep(core.SweepSpace{Core: tech.InOrder, MaxCores: 64, LLCSizes: []float64{1, 2, 4, 8}, Nets: []noc.Kind{noc.Crossbar}}, tech.N40(), ws)
	for _, p := range pts {
		if p.Pod.Cores >= 16 {
			fmt.Printf("  %-10s PD %.3f\n", p.Pod, p.PD)
		}
	}
	fmt.Println("== per-workload OoO pod (16c/4MB) demand GB/s (target worst ~9.4) and IO pod (32c/2MB) (target ~15-17)")
	for _, w := range ws {
		dO := analytic.NewDesign(tech.OoO, 16, 4, noc.Crossbar)
		dI := analytic.NewDesign(tech.InOrder, 32, 2, noc.Crossbar)
		fmt.Printf("  %-16s OoO %.1f  IO %.1f\n", w.Name,
			analytic.Evaluate(&w, dO).PeakGBs, analytic.Evaluate(&w, dI).PeakGBs)
	}
	// pod bw
	podO := core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar}
	podI := core.Pod{Core: tech.InOrder, Cores: 32, LLCMB: 2, Net: noc.Crossbar}
	fmt.Printf("pod OoO peak BW %.1f GB/s (target ~9.4x1.25), pod IO %.1f (target ~15x1.2=18)\n", podO.PeakBandwidthGBs(ws), podI.PeakBandwidthGBs(ws))
	so, _ := core.Compose(tech.N40(), podO, ws)
	fmt.Printf("Compose OoO 40nm: pods %d MC %d die %.0f pow %.0f limit %s\n", so.Pods, so.MemChannels, so.DieArea(), so.Power(), so.Limit)
	si, _ := core.Compose(tech.N40(), podI, ws)
	fmt.Printf("Compose IO 40nm: pods %d MC %d die %.0f pow %.0f limit %s\n", si.Pods, si.MemChannels, si.DieArea(), si.Power(), si.Limit)
	so2, _ := core.Compose(tech.N20(), podO, ws)
	fmt.Printf("Compose OoO 20nm: pods %d MC %d die %.0f pow %.0f limit %s\n", so2.Pods, so2.MemChannels, so2.DieArea(), so2.Power(), so2.Limit)
	si2, _ := core.Compose(tech.N20(), podI, ws)
	fmt.Printf("Compose IO 20nm: pods %d MC %d die %.0f pow %.0f limit %s\n", si2.Pods, si2.MemChannels, si2.DieArea(), si2.Power(), si2.Limit)
	if err := simCheck(ctx, ws); err != nil {
		return err
	}
	return structCheck(ctx, ws)
}

// simCheck compares the statistical simulator against the analytic
// model: one batch per table, fanned out through the engine.
func simCheck(ctx context.Context, ws []workload.Workload) error {
	fmt.Println("== sim vs analytic: OoO 4MB crossbar (16 cores), snoop% target in []")
	cfgs := make([]sim.Config, len(ws))
	for i, w := range ws {
		cfgs[i] = sim.Config{Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.New(noc.Crossbar, 16), DisableSWScaling: true}
	}
	res, err := exp.Sims(ctx, cfgs)
	if err != nil {
		return err
	}
	for i, w := range ws {
		r := res[i]
		d := analytic.NewDesign(tech.OoO, 16, 4, noc.Crossbar)
		fmt.Printf("  %-16s sim %.2f  model %.2f  snoop %.1f%% [%.1f]  miss %.3f  bw %.1fGB/s\n",
			w.Name, r.AppIPC, analytic.Evaluate(&w, d).IPC, r.SnoopRatePct, w.SnoopPct, r.MissRatio(), r.OffChipGBs)
	}

	fmt.Println("== sim 64-core pod: mesh vs fbfly vs nocout (normalized to mesh)")
	kinds := []noc.Kind{noc.Mesh, noc.FlattenedButterfly, noc.NOCOut}
	netCfgs := make([]sim.Config, 0, len(ws)*len(kinds))
	for _, w := range ws {
		for _, kind := range kinds {
			cores := 64
			if w.ScaleLimit < cores {
				cores = w.ScaleLimit
			}
			net := noc.New(kind, 64) // full-pod topology
			if kind == noc.NOCOut {
				net.Cores = cores // active cores sit adjacent to the LLC
			}
			netCfgs = append(netCfgs, sim.Config{Workload: w, CoreType: tech.OoO, Cores: cores, LLCMB: 8, Net: net, MemChannels: 4})
		}
	}
	netRes, err := exp.Sims(ctx, netCfgs)
	if err != nil {
		return err
	}
	for i, w := range ws {
		row := netRes[i*len(kinds) : (i+1)*len(kinds)]
		fmt.Printf("  %-16s mesh 1.00  fbfly %.2f  nocout %.2f\n",
			w.Name, row[1].AppIPC/row[0].AppIPC, row[2].AppIPC/row[0].AppIPC)
	}
	return nil
}

// structCheck compares emergent structural-mode cache behaviour against
// the calibrated statistical targets, one engine batch for the suite.
func structCheck(ctx context.Context, ws []workload.Workload) error {
	fmt.Println("== structural mode: emergent L1 MPKI vs calibrated APKI (16c, 4MB) ==")
	cfgs := make([]sim.StructuralConfig, len(ws))
	for i, w := range ws {
		cfgs[i] = sim.StructuralConfig{Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4}
	}
	res, err := exp.Structurals(ctx, cfgs)
	if err != nil {
		return err
	}
	for i, w := range ws {
		r := res[i]
		apki := w.EffectiveAPKI(tech.OoO)
		iT := apki * w.IFetchFrac
		dT := apki - iT
		fmt.Printf("  %-16s L1I %5.1f [%5.1f]  L1D %5.1f [%5.1f]  LLCmiss %4.1f%%  IPC %5.2f  mshrStall %.2f%%\n",
			w.Name, r.L1IMPKI, iT, r.L1DMPKI, dT, r.LLCMissPct, r.AppIPC, r.MSHRStallPct)
	}
	return nil
}
