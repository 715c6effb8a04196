package figures

import (
	"context"
	"fmt"

	"scaleout/internal/analytic"
	"scaleout/internal/core"
	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func init() {
	register("fig3.1", fig31)
	register("fig3.3", fig33)
	register("fig3.4", func(ctx context.Context) (Table, error) { return pdSweep(ctx, "fig3.4", tech.OoO) })
	register("fig3.5", fig35)
	register("fig3.6", func(ctx context.Context) (Table, error) { return pdSweep(ctx, "fig3.6", tech.InOrder) })
	register("table3.2", table32)
}

// fig31 reproduces the intuition plot of Figure 3.1: as cores share a
// fixed LLC, per-core performance falls, chip performance grows
// sub-linearly, and performance density peaks at the balance point.
func fig31(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	t := Table{
		ID:      "fig3.1",
		Title:   "Perf/core, perf/chip, and performance density vs cores",
		Note:    "crossbar pods, 4MB LLC, OoO cores, 40nm; all normalized to peak",
		Headers: []string{"Cores", "Perf/Core", "Perf/Chip", "PD"},
	}
	n := tech.N40()
	var perCore, perChip, pd []float64
	var cores []int
	for c := 1; c <= 256; c *= 2 {
		p := core.Pod{Core: tech.OoO, Cores: c, LLCMB: 4, Net: noc.Crossbar}
		perf := p.Perf(ws)
		cores = append(cores, c)
		perCore = append(perCore, perf.IPC/float64(c))
		perChip = append(perChip, perf.IPC)
		pd = append(pd, p.PDFrom(n, perf))
	}
	normPeak := func(xs []float64) []float64 {
		peak := xs[0]
		for _, x := range xs {
			if x > peak {
				peak = x
			}
		}
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / peak
		}
		return out
	}
	pcN, chN, pdN := normPeak(perCore), normPeak(perChip), normPeak(pd)
	for i, c := range cores {
		t.AddRow(itoa(c), f3(pcN[i]), f3(chN[i]), f3(pdN[i]))
	}
	return t, nil
}

// fig33 validates the analytic model against cycle simulation per
// workload for designs with OoO cores and a 4MB LLC across three
// interconnects (Figure 3.3). The simulator includes the software-
// scalability derating the model deliberately omits, so the two diverge
// at 32-64 cores on the poorly scaling workloads — as in the thesis.
// The sweep is declared up front — one point per (workload, net, cores)
// — and fanned out on the engine; the table is assembled from the
// ordered results.
func fig33(ctx context.Context) (Table, error) {
	n := tech.N40()
	t := Table{
		ID:      "fig3.3",
		Title:   "Model validation: simulation vs analytic PD (OoO, 4MB LLC)",
		Headers: []string{"Workload", "Net", "Cores", "PD(sim)", "PD(model)", "Err%"},
	}
	ws := workload.Suite()
	kinds := []noc.Kind{noc.Ideal, noc.Crossbar, noc.Mesh}
	cfgs := make([]sim.Config, 0, len(ws)*len(kinds)*7) // 1..64 cores
	for _, w := range ws {
		for _, kind := range kinds {
			for c := 1; c <= 64; c *= 2 {
				if c > w.ScaleLimit {
					continue
				}
				cfgs = append(cfgs, sim.Config{
					Workload: w, CoreType: tech.OoO, Cores: c, LLCMB: 4,
					Net: noc.New(kind, c),
				})
			}
		}
	}
	rs, err := exp.Sims(ctx, cfgs)
	if err != nil {
		return t, err
	}
	for i := range cfgs {
		c := &cfgs[i]
		p := core.Pod{Core: tech.OoO, Cores: c.Cores, LLCMB: 4, Net: c.Net.Kind}
		model := p.PDFrom(n, analytic.Evaluate(&c.Workload, p.Design()))
		simPD := rs[i].AppIPC / p.Area(n)
		errPct := 100 * (simPD - model) / model
		t.AddRow(c.Workload.Name, c.Net.Kind.String(), itoa(c.Cores), f3(simPD), f3(model), f1(errPct))
	}
	return t, nil
}

// pdSweep renders Figures 3.4 (OoO) and 3.6 (in-order): suite-mean pod
// performance density across core counts, LLC sizes 1-8MB, and three
// interconnects. One engine point evaluates one LLC size's rows, one per
// interconnect: the three pods of a core count differ only in the
// network, so they share each workload's access breakdown.
func pdSweep(ctx context.Context, id string, coreType tech.CoreType) (Table, error) {
	ws := workload.Suite()
	n := tech.N40()
	t := Table{
		ID:      id,
		Title:   fmt.Sprintf("Performance density sweep (%s cores, 40nm)", coreType),
		Headers: []string{"LLC(MB)", "Net", "1", "2", "4", "8", "16", "32", "64", "128", "256"},
	}
	kinds := [...]noc.Kind{noc.Ideal, noc.Crossbar, noc.Mesh}
	blocks, err := exp.Map(ctx, exp.FromContext(ctx), []float64{1, 2, 4, 8}, func(llc float64) ([][]string, error) {
		rows := make([][]string, len(kinds))
		var pods [len(kinds)]core.Pod
		var ds [len(kinds)]analytic.Design
		for k, kind := range kinds {
			rows[k] = []string{fg(llc), kind.String()}
		}
		for c := 1; c <= 256; c *= 2 {
			for k, kind := range kinds {
				pods[k] = core.Pod{Core: coreType, Cores: c, LLCMB: llc, Net: kind}
				ds[k] = pods[k].Design()
			}
			for k, perf := range analytic.EvaluateSuites(ws, ds[:]...) {
				rows[k] = append(rows[k], f3(pods[k].PDFrom(n, perf)))
			}
		}
		return rows, nil
	})
	if err != nil {
		return t, err
	}
	for _, rows := range blocks {
		t.Rows = append(t.Rows, rows...)
	}
	return t, nil
}

// fig35 examines crossbar pods across LLC sizes and applies the
// near-optimal selection rule of Section 3.4.2: the 16-core/4MB pod is
// adopted because it sits within 5% of the flat 32-core optimum at far
// lower design complexity.
func fig35(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	n := tech.N40()
	t := Table{
		ID:      "fig3.5",
		Title:   "PD of crossbar pods (OoO) across LLC sizes; pod selection",
		Headers: []string{"Pod", "PD", "Note"},
	}
	space := core.SweepSpace{Core: tech.OoO, MaxCores: 64,
		LLCSizes: []float64{1, 2, 4, 8}, Nets: []noc.Kind{noc.Crossbar}}
	pts := core.Sweep(space, n, ws)
	opt, err := core.Optimal(pts)
	if err != nil {
		return t, err
	}
	sel, err := core.NearOptimal(pts, 0.05, 16)
	if err != nil {
		return t, err
	}
	for _, p := range pts {
		note := ""
		if p.Pod == opt.Pod {
			note = "peak PD"
		}
		if p.Pod == sel.Pod {
			note = "selected (within 5% of peak, modest complexity)"
		}
		t.AddRow(p.Pod.String(), f3(p.PD), note)
	}
	return t, nil
}

// table32 extends the catalog with the composed Scale-Out chips and their
// pod structure at both nodes (Table 3.2).
func table32(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	t := Table{
		ID:    "table3.2",
		Title: "Scale-Out Processors vs existing designs (40nm and 20nm)",
		Headers: []string{"Node", "Design", "PD", "Cores", "LLC(MB)", "MCs",
			"Die(mm2)", "Power(W)", "Perf/Watt", "Limit"},
	}
	podO := core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar}
	podI := core.Pod{Core: tech.InOrder, Cores: 32, LLCMB: 2, Net: noc.Crossbar}
	for _, n := range []tech.Node{tech.N40(), tech.N20()} {
		for _, d := range []struct {
			pod  core.Pod
			name string
		}{{podO, "Scale-Out (OoO)"}, {podI, "Scale-Out (In-order)"}} {
			c, err := core.Compose(n, d.pod, ws)
			if err != nil {
				return t, err
			}
			t.AddRow(n.Name, fmt.Sprintf("%s %dx%s", d.name, c.Pods, c.Pod),
				f3(c.PD()), itoa(c.Cores()), fg(c.LLCMB()), itoa(c.MemChannels),
				f0(c.DieArea()), f0(c.Power()), f2(c.PerfPerWatt()), string(c.Limit))
		}
		// Context rows: the strongest competing organizations.
		cat, err := catalogTable("", n)
		if err != nil {
			return t, err
		}
		for _, row := range cat.Rows {
			t.AddRow(append([]string{n.Name}, append(row, "")...)...)
		}
	}
	return t, nil
}
