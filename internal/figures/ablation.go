package figures

import (
	"context"
	"fmt"

	"scaleout/internal/chip"
	"scaleout/internal/core"
	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tco"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Ablations: each experiment isolates one design choice the thesis (or
// this reproduction) makes and sweeps it, holding everything else fixed.
// They answer "how much does this choice matter" rather than reproduce a
// published artifact.
func init() {
	register("ablate.pods", ablatePodSize)
	register("ablate.llc", ablatePodLLC)
	register("ablate.banks", ablateBanks)
	register("ablate.mshr", ablateMSHR)
	register("ablate.linkwidth", ablateLinkWidth)
	register("ablate.sharing", ablateSharing)
	register("ablate.tco", ablateTCO)
}

// ablatePodSize holds the 40nm chip budgets fixed and varies the pod
// granularity: many small pods vs few large ones. The methodology's
// claim — a PD-optimal mid-size pod beats both extremes at the chip
// level — is visible directly.
func ablatePodSize(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	n := tech.N40()
	t := Table{
		ID:      "ablate.pods",
		Title:   "Chip-level PD vs pod granularity (OoO, 4MB LLC per 16 cores, 40nm)",
		Note:    "same budgets, different pod sizes; the mid-size pod wins",
		Headers: []string{"Pod", "Pods/chip", "Cores", "MCs", "Chip PD", "Perf/W"},
	}
	for _, cores := range []int{4, 8, 16, 32, 64} {
		pod := core.Pod{Core: tech.OoO, Cores: cores, LLCMB: float64(cores) / 4, Net: noc.Crossbar}
		chip, err := core.Compose(n, pod, ws)
		if err != nil {
			// A 64-core/16MB pod exceeds the die by itself — the
			// scale-up endpoint literally does not fit.
			t.AddRow(pod.String(), "-", "-", "-", "does not fit", "-")
			continue
		}
		t.AddRow(pod.String(), itoa(chip.Pods), itoa(chip.Cores()),
			itoa(chip.MemChannels), f3(chip.PD()), f2(chip.PerfPerWatt()))
	}
	return t, nil
}

// ablatePodLLC varies only the per-pod LLC capacity of the 16-core pod:
// too little capacity floods the memory channels; too much wastes core
// area — the Figure 2.2 trade-off at chip level.
func ablatePodLLC(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	n := tech.N40()
	t := Table{
		ID:      "ablate.llc",
		Title:   "Chip-level PD vs per-pod LLC capacity (16-core OoO pods, 40nm)",
		Headers: []string{"Pod", "Pods/chip", "MCs", "Chip PD", "Demand(GB/s)"},
	}
	for _, llc := range []float64{0.5, 1, 2, 4, 8, 16} {
		pod := core.Pod{Core: tech.OoO, Cores: 16, LLCMB: llc, Net: noc.Crossbar}
		chip, err := core.Compose(n, pod, ws)
		if err != nil {
			return t, err
		}
		t.AddRow(pod.String(), itoa(chip.Pods), itoa(chip.MemChannels),
			f3(chip.PD()), f1(chip.PeakBandwidthGBs()))
	}
	return t, nil
}

// ablateBanks sweeps NOC-Out's banks-per-LLC-tile choice on the
// cycle simulator (Section 4.3.1 settles on two banks per tile).
func ablateBanks(ctx context.Context) (Table, error) {
	w, ok := workload.ByName(workload.DataServing) // the contention-sensitive one
	if !ok {
		return Table{}, fmt.Errorf("missing workload")
	}
	t := Table{
		ID:      "ablate.banks",
		Title:   "NOC-Out LLC banking vs performance (Data Serving, 64-core pod)",
		Note:    "statistical simulator; bank accept interval doubles as banks halve",
		Headers: []string{"LLC tiles", "Banks", "AppIPC"},
	}
	tiles := []int{4, 8, 16}
	cfgs := make([]sim.Config, len(tiles))
	for i, n := range tiles {
		net := noc.New(noc.NOCOut, ch4Cores)
		net.LLCTiles = n
		cfgs[i] = sim.Config{
			Workload: w, CoreType: tech.OoO, Cores: ch4Cores, LLCMB: ch4LLCMB,
			Net: net, MemChannels: ch4Channels,
		}
	}
	rs, err := exp.Sims(ctx, cfgs)
	if err != nil {
		return t, err
	}
	for i, n := range tiles {
		t.AddRow(itoa(n), itoa(2*n), f2(rs[i].AppIPC))
	}
	return t, nil
}

// ablateMSHR sweeps the per-core MSHR file on the structural simulator:
// Table 2.2's 32 entries are ample; the knee sits near the workloads'
// memory-level parallelism.
func ablateMSHR(ctx context.Context) (Table, error) {
	w, ok := workload.ByName(workload.SATSolver) // highest MLP
	if !ok {
		return Table{}, fmt.Errorf("missing workload")
	}
	t := Table{
		ID:      "ablate.mshr",
		Title:   "Per-core MSHR entries vs performance (SAT Solver, structural sim)",
		Headers: []string{"MSHRs", "AppIPC", "Stall %"},
	}
	entries := []int{1, 2, 4, 8, 16, 32}
	cfgs := make([]sim.StructuralConfig, len(entries))
	for i, e := range entries {
		cfgs[i] = sim.StructuralConfig{
			Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4, L1MSHRs: e,
		}
	}
	rs, err := exp.Structurals(ctx, cfgs)
	if err != nil {
		return t, err
	}
	for i, e := range entries {
		t.AddRow(itoa(e), f2(rs[i].AppIPC), f2(rs[i].MSHRStallPct))
	}
	return t, nil
}

// ablateLinkWidth sweeps NoC link width: the mesh barely cares (header
// latency dominates), the flattened butterfly collapses below ~64 bits
// (serialization), exactly the asymmetry Section 4.4.3 exploits. The
// 128-bit points are the calibration baseline and are shared with the
// Chapter-4 figures, so the engine memo already holds them.
func ablateLinkWidth(ctx context.Context) (Table, error) {
	w, ok := workload.ByName(workload.MediaStreaming)
	if !ok {
		return Table{}, fmt.Errorf("missing workload")
	}
	t := Table{
		ID:      "ablate.linkwidth",
		Title:   "NoC link width vs performance (Media Streaming, 64-core pod)",
		Note:    "normalized to 128-bit links per topology",
		Headers: []string{"Bits", "Mesh", "FBfly", "NOC-Out"},
	}
	kinds := []noc.Kind{noc.Mesh, noc.FlattenedButterfly, noc.NOCOut}
	widths := []int{128, 64, 32, 16}
	var cfgs []sim.Config
	for _, bits := range widths {
		for _, kind := range kinds {
			cfgs = append(cfgs, ch4Cfg(w, kind, bits))
		}
	}
	rs, err := exp.Sims(ctx, cfgs)
	if err != nil {
		return t, err
	}
	base := map[noc.Kind]float64{}
	for i, bits := range widths {
		row := []string{itoa(bits)}
		for k, kind := range kinds {
			ipc := rs[i*len(kinds)+k].AppIPC
			if bits == 128 {
				base[kind] = ipc
			}
			row = append(row, f2(ipc/base[kind]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ablateSharing scales the coherence-visible sharing of the most
// share-heavy workload: even at 4x the calibrated sharing (a ~26% snoop
// rate), performance falls only ~11% — the workload class tolerates
// minimal connectivity (Section 2.1.5).
func ablateSharing(ctx context.Context) (Table, error) {
	t := Table{
		ID:      "ablate.sharing",
		Title:   "Sharing intensity vs snoop rate and performance (Web Frontend)",
		Headers: []string{"SharedFrac x", "Snoop %", "AppIPC"},
	}
	w, ok := workload.ByName(workload.WebFrontend)
	if !ok {
		return t, fmt.Errorf("missing workload")
	}
	mults := []float64{0, 0.5, 1, 2, 4}
	cfgs := make([]sim.Config, len(mults))
	for i, mult := range mults {
		ww := w
		ww.SharedFrac = w.SharedFrac * mult
		cfgs[i] = sim.Config{
			Workload: ww, CoreType: tech.OoO, Cores: 32, LLCMB: 8,
			Net: noc.New(noc.Mesh, 64), MemChannels: 4,
		}
	}
	rs, err := exp.Sims(ctx, cfgs)
	if err != nil {
		return t, err
	}
	for i, mult := range mults {
		t.AddRow(fg(mult), f1(rs[i].SnoopRatePct), f2(rs[i].AppIPC))
	}
	return t, nil
}

// ablateTCO stresses the Chapter-5 ranking against the cost-model inputs
// a datacenter operator cannot control: the electricity price and the
// facility PUE. The Scale-Out designs' perf/TCO lead over the
// conventional design must survive across the whole range. One engine
// point evaluates one electricity-price row across the PUE columns.
func ablateTCO(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	specs := chip.TCOCatalog(ws)
	conv, ok := chip.Find(specs, chip.ConventionalOrg, tech.Conventional)
	if !ok {
		return Table{}, fmt.Errorf("missing conventional design")
	}
	soI, ok := chip.Find(specs, chip.ScaleOutOrg, tech.InOrder)
	if !ok {
		return Table{}, fmt.Errorf("missing Scale-Out design")
	}
	t := Table{
		ID:      "ablate.tco",
		Title:   "Scale-Out (In-order) perf/TCO lead vs electricity price and PUE",
		Note:    "lead = Scale-Out perf/TCO over conventional; 64GB per 1U",
		Headers: []string{"$/kWh", "PUE 1.1", "PUE 1.3", "PUE 1.7", "PUE 2.0"},
	}
	rows, err := exp.Map(ctx, exp.FromContext(ctx), []float64{0.03, 0.07, 0.15, 0.30},
		func(price float64) ([]string, error) {
			row := []string{fmt.Sprintf("%.2f", price)}
			for _, pue := range []float64{1.1, 1.3, 1.7, 2.0} {
				p := tco.NewParams()
				p.ElectricityPerKWh = price
				p.PUE = pue
				dcC, err := tco.Compose(p, conv, 64)
				if err != nil {
					return nil, err
				}
				dcS, err := tco.Compose(p, soI, 64)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(dcS.PerfPerTCO()/dcC.PerfPerTCO()))
			}
			return row, nil
		})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}
