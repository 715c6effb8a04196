package figures

import (
	"context"
	"fmt"

	"scaleout/internal/core"
	"scaleout/internal/dvfs"
	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Extensions: features the thesis names as future work (Section 8.1) or
// leaves open, built on the same substrates.
func init() {
	register("ext.hetero", extHetero)
	register("ext.dvfs", extDVFS)
	register("ext.structural", extStructural)
	register("ext.nocout-scale", extNOCOutScale)
}

// extHetero enumerates heterogeneous Scale-Out chips mixing OoO pods
// (latency-critical services) with in-order pods (batch throughput) at
// 40nm, and marks the Pareto frontier over (OoO capability, total
// throughput). Pods make heterogeneity free: there is no shared
// infrastructure to reconcile between the two halves.
func extHetero(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	n := tech.N40()
	podO := core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar}
	podI := core.Pod{Core: tech.InOrder, Cores: 32, LLCMB: 2, Net: noc.Crossbar}
	mixes, err := core.EnumerateHetero(n, podO, podI, ws)
	if err != nil {
		return Table{}, err
	}
	pareto := map[string]bool{}
	for _, c := range core.ParetoHetero(mixes) {
		pareto[fmt.Sprintf("%d/%d", c.CountA, c.CountB)] = true
	}
	t := Table{
		ID:      "ext.hetero",
		Title:   "Heterogeneous Scale-Out Processors: OoO pods x in-order pods (40nm)",
		Note:    "* marks the Pareto frontier over (OoO throughput, total throughput)",
		Headers: []string{"OoO pods", "IO pods", "Cores", "MCs", "Die(mm2)", "Power(W)", "IPC", "PD", ""},
	}
	for _, c := range mixes {
		mark := ""
		if pareto[fmt.Sprintf("%d/%d", c.CountA, c.CountB)] {
			mark = "*"
		}
		t.AddRow(itoa(c.CountA), itoa(c.CountB), itoa(c.Cores()), itoa(c.MemChannels),
			f0(c.DieArea()), f0(c.Power()), f1(c.IPC()), f3(c.PD()), mark)
	}
	return t, nil
}

// extDVFS sweeps the voltage-frequency curve on the PD-optimal pod:
// memory-bound scale-out workloads gain little beyond nominal frequency
// while power grows with f*V^2 — the energy-efficiency sweet spot sits
// below 2GHz.
func extDVFS(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	n := tech.N40()
	pod := core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar}
	results, err := dvfs.Sweep(pod, n, ws, dvfs.DefaultCurve())
	if err != nil {
		return Table{}, err
	}
	best, err := dvfs.MostEfficient(results)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "ext.dvfs",
		Title:   "DVFS on the 16-core OoO pod (suite mean)",
		Note:    "* marks the best GIPS/W point",
		Headers: []string{"Point", "GIPS", "Power(W)", "GIPS/W", ""},
	}
	for _, r := range results {
		mark := ""
		if r.Point == best.Point {
			mark = "*"
		}
		t.AddRow(r.Point.String(), f1(r.GIPS), f1(r.PowerW), f2(r.GIPSPerW), mark)
	}
	return t, nil
}

// extStructural cross-checks the statistical calibration against the
// structural simulator: real L1/LLC tag arrays replaying synthetic
// reference streams. Emergent L1 miss rates should track the workload
// models' APKI. The whole suite runs as one engine batch.
func extStructural(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "ext.structural",
		Title:   "Structural simulation: emergent vs calibrated cache behaviour",
		Note:    "16 OoO cores, 4MB LLC; [targets] from the workload models",
		Headers: []string{"Workload", "L1I MPKI", "[tgt]", "L1D MPKI", "[tgt]", "LLC miss%", "AppIPC"},
	}
	ws := workload.Suite()
	cfgs := make([]sim.StructuralConfig, len(ws))
	for i, w := range ws {
		cfgs[i] = sim.StructuralConfig{
			Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4,
		}
	}
	rs, err := exp.Structurals(ctx, cfgs)
	if err != nil {
		return t, err
	}
	for i, w := range ws {
		apki := w.EffectiveAPKI(tech.OoO)
		iT := apki * w.IFetchFrac
		t.AddRow(w.Name, f1(rs[i].L1IMPKI), f1(iT), f1(rs[i].L1DMPKI), f1(apki-iT),
			f1(rs[i].LLCMissPct), f2(rs[i].AppIPC))
	}
	return t, nil
}

// extNOCOutScale explores NOC-Out beyond 64 cores with the Section-4.5.1
// mechanisms: concentration (two cores per tree node) and express links
// (bypassing alternate tree nodes). Both keep latency near the 64-core
// point as pods grow.
func extNOCOutScale(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "ext.nocout-scale",
		Title:   "NOC-Out scalability: latency and area vs core count (Section 4.5.1)",
		Headers: []string{"Cores", "Variant", "One-way (cyc)", "NoC area (mm2)"},
	}
	for _, cores := range []int{64, 128, 256} {
		variants := []struct {
			name string
			cfg  noc.Config
		}{
			{"baseline", noc.New(noc.NOCOut, cores)},
			{"concentration=2", func() noc.Config {
				c := noc.New(noc.NOCOut, cores)
				c.Concentration = 2
				return c
			}()},
			{"express links", func() noc.Config {
				c := noc.New(noc.NOCOut, cores)
				c.ExpressLinks = true
				return c
			}()},
		}
		for _, v := range variants {
			t.AddRow(itoa(cores), v.name, f1(v.cfg.OneWayLatency()), f2(v.cfg.Area().Total()))
		}
	}
	return t, nil
}
