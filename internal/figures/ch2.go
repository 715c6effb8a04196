package figures

import (
	"context"

	"scaleout/internal/analytic"
	"scaleout/internal/chip"
	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func init() {
	register("fig2.1", fig21)
	register("fig2.2", fig22)
	register("fig2.3", fig23)
	register("table2.3", func(ctx context.Context) (Table, error) { return catalogTable("table2.3", tech.N40()) })
	register("table2.4", func(ctx context.Context) (Table, error) { return catalogTable("table2.4", tech.N20()) })
}

// fig21 measures application IPC per workload on the aggressive
// out-of-order (conventional) core, on the simulator, as Figure 2.1:
// Media Streaming below 1, Data Serving and MapReduce-C around 1, the
// rest between 1 and 2, all far below the 4-wide peak.
func fig21(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "fig2.1",
		Title:   "Application IPC on an aggressive OoO core (max IPC 4)",
		Note:    "cycle simulation, 4 cores, 4MB LLC, crossbar",
		Headers: []string{"Workload", "App IPC"},
	}
	ws := workload.Suite()
	cfgs := make([]sim.Config, len(ws))
	for i, w := range ws {
		cfgs[i] = sim.Config{
			Workload: w, CoreType: tech.Conventional, Cores: 4, LLCMB: 4,
			Net: noc.New(noc.Crossbar, 4), DisableSWScaling: true,
		}
	}
	rs, err := exp.Sims(ctx, cfgs)
	if err != nil {
		return t, err
	}
	for i, w := range ws {
		t.AddRow(w.Name, f2(rs[i].PerCoreIPC))
	}
	return t, nil
}

// fig22 sweeps the LLC from 1 to 32MB on a quad-core system and reports
// performance normalized to the 1MB point (Figure 2.2): capacities of
// 2-8MB suffice for most workloads; MapReduce-C and SAT Solver keep
// gaining to 16MB; beyond that latency wins and performance falls.
func fig22(ctx context.Context) (Table, error) {
	sizes := []float64{1, 2, 4, 8, 16, 32}
	t := Table{
		ID:      "fig2.2",
		Title:   "Performance of 4-core workloads varying the LLC size",
		Note:    "analytic model, normalized to 1MB",
		Headers: []string{"Workload", "1MB", "2MB", "4MB", "8MB", "16MB", "32MB"},
	}
	rows, err := exp.Map(ctx, exp.FromContext(ctx), workload.Suite(),
		func(w workload.Workload) ([]string, error) {
			row := []string{w.Name}
			base := 0.0
			for i, mb := range sizes {
				d := analytic.NewDesign(tech.Conventional, 4, mb, noc.Crossbar)
				perf := analytic.Evaluate(&w, d).IPC
				if i == 0 {
					base = perf
				}
				row = append(row, f3(perf/base))
			}
			return row, nil
		})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

// fig23 contrasts an ideal fixed-latency interconnect against a realistic
// mesh as the core count grows from 1 to 256 with a fixed 4MB LLC
// (Figure 2.3): per-core performance degrades slowly under the ideal
// network (sharing only) but steeply under the mesh (distance), cutting
// aggregate throughput at 256 cores.
func fig23(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	t := Table{
		ID:    "fig2.3",
		Title: "Per-core and chip performance vs core count (4MB LLC)",
		Note:  "analytic model, averaged across workloads, normalized to 1 core",
		Headers: []string{"Cores", "PerCore(Ideal)", "PerCore(Mesh)",
			"Chip(Ideal)", "Chip(Mesh)"},
	}
	base := analytic.EvaluateSuite(ws, analytic.NewDesign(tech.OoO, 1, 4, noc.Ideal)).PerCoreIPC
	var cores []int
	for c := 1; c <= 256; c *= 2 {
		cores = append(cores, c)
	}
	rows, err := exp.Map(ctx, exp.FromContext(ctx), cores, func(c int) ([]string, error) {
		// The two designs differ only in the network, so they share each
		// workload's access breakdown.
		perf := analytic.EvaluateSuites(ws,
			analytic.NewDesign(tech.OoO, c, 4, noc.Ideal), analytic.NewDesign(tech.OoO, c, 4, noc.Mesh))
		ideal, mesh := perf[0].PerCoreIPC, perf[1].PerCoreIPC
		return []string{itoa(c), f3(ideal / base), f3(mesh / base),
			f1(float64(c) * ideal / base), f1(float64(c) * mesh / base)}, nil
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

// catalogTable renders the processor-design comparison of Tables 2.3/2.4
// (and the Scale-Out rows of Table 3.2) at one technology node.
func catalogTable(id string, n tech.Node) (Table, error) {
	ws := workload.Suite()
	t := Table{
		ID:    id,
		Title: "Specification of processor designs at " + n.Name,
		Headers: []string{"Design", "PD", "Cores", "LLC(MB)", "MCs",
			"Die(mm2)", "Power(W)", "Perf/Watt"},
	}
	for _, s := range chip.Catalog(n, ws) {
		t.AddRow(s.Name(), f3(s.PD()), itoa(s.Cores), fg(s.LLCMB),
			itoa(s.MemChannels), f0(s.DieArea()), f0(s.Power()), f2(s.PerfPerWatt()))
	}
	return t, nil
}
