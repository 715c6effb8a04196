package figures

import (
	"context"
	"fmt"

	"scaleout/internal/chip"
	"scaleout/internal/exp"
	"scaleout/internal/tco"
	"scaleout/internal/workload"
)

func init() {
	register("table5.1", table51)
	register("fig5.1", fig51)
	register("fig5.2", fig52)
	register("fig5.3", func(ctx context.Context) (Table, error) { return tcoSweep(ctx, "fig5.3", true) })
	register("fig5.4", func(ctx context.Context) (Table, error) { return tcoSweep(ctx, "fig5.4", false) })
	register("fig5.5", fig55)
}

// table51 renders the server-chip characteristics of Table 5.1, with
// prices from the volume model (conventional at its market price).
func table51(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	t := Table{
		ID:    "table5.1",
		Title: "Server chip characteristics (40nm)",
		Headers: []string{"Processor", "Cores", "LLC(MB)", "DDR3", "Power(W)",
			"Area(mm2)", "Cost($)"},
	}
	for _, s := range chip.TCOCatalog(ws) {
		t.AddRow(s.Name(), itoa(s.Cores), fg(s.LLCMB), itoa(s.MemChannels),
			f0(s.Power()), f0(s.DieArea()), f0(tco.ChipPrice(s)))
	}
	return t, nil
}

// composeAll builds a 64GB-per-1U datacenter around every TCO-catalog
// chip, one engine point per chip.
func composeAll(ctx context.Context, memGB int) ([]chip.Spec, []tco.Datacenter, error) {
	ws := workload.Suite()
	p := tco.NewParams()
	specs := chip.TCOCatalog(ws)
	dcs, err := exp.Map(ctx, exp.FromContext(ctx), specs, func(s chip.Spec) (tco.Datacenter, error) {
		return tco.Compose(p, s, memGB)
	})
	if err != nil {
		return nil, nil, err
	}
	return specs, dcs, nil
}

// fig51 reports datacenter performance normalized to the conventional
// design (Figure 5.1): 1pod ~4.4x, in-order Scale-Out the highest.
func fig51(ctx context.Context) (Table, error) {
	specs, dcs, err := composeAll(ctx, 64)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig5.1",
		Title:   "Datacenter performance normalized to the conventional design",
		Note:    "64GB per 1U server, 20MW facility",
		Headers: []string{"Processor", "Sockets/1U", "Racks", "Perf (norm)"},
	}
	base := dcs[0].PerfIPC
	for i, s := range specs {
		t.AddRow(s.Name(), itoa(dcs[i].Server.Sockets), itoa(dcs[i].Racks), f2(dcs[i].PerfIPC/base))
	}
	return t, nil
}

// fig52 reports datacenter TCO normalized to the conventional design
// (Figure 5.2): differences are muted because processors are only part of
// the acquisition and power budget.
func fig52(ctx context.Context) (Table, error) {
	specs, dcs, err := composeAll(ctx, 64)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig5.2",
		Title:   "Datacenter TCO normalized to the conventional design",
		Note:    "64GB per 1U server; monthly TCO",
		Headers: []string{"Processor", "Infra", "ServerHW", "Power", "Maint", "TCO (norm)"},
	}
	base := dcs[0].MonthlyTCO().Total()
	for i, s := range specs {
		b := dcs[i].MonthlyTCO()
		t.AddRow(s.Name(), f2(b.Infrastructure/1e6), f2(b.ServerHW/1e6),
			f2(b.Power/1e6), f2(b.Maintenance/1e6), f2(b.Total()/base))
	}
	return t, nil
}

// tcoSweep renders Figures 5.3 (performance/TCO) and 5.4 (performance/
// Watt) across per-server memory capacities of 32, 64, and 128GB. Each
// chip's row is one engine point.
func tcoSweep(ctx context.Context, id string, perTCO bool) (Table, error) {
	title := "Datacenter performance/TCO"
	if !perTCO {
		title = "Datacenter performance/Watt"
	}
	t := Table{
		ID:      id,
		Title:   title + " for different server chips",
		Note:    "columns: memory capacity per 1U server",
		Headers: []string{"Processor", "32GB", "64GB", "128GB"},
	}
	ws := workload.Suite()
	p := tco.NewParams()
	rows, err := exp.Map(ctx, exp.FromContext(ctx), chip.TCOCatalog(ws),
		func(s chip.Spec) ([]string, error) {
			row := []string{s.Name()}
			for _, mem := range []int{32, 64, 128} {
				dc, err := tco.Compose(p, s, mem)
				if err != nil {
					return nil, err
				}
				if perTCO {
					row = append(row, f3(dc.PerfPerTCO()))
				} else {
					row = append(row, f3(dc.PerfPerWatt()))
				}
			}
			return row, nil
		})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

// fig55 sweeps the processor price and reports performance/TCO (Figure
// 5.5): large dies are less price-sensitive because fewer chips populate
// each power-limited server.
func fig55(ctx context.Context) (Table, error) {
	ws := workload.Suite()
	p := tco.NewParams()
	prices := []float64{100, 200, 320, 370, 400, 600, 800}
	t := Table{
		ID:      "fig5.5",
		Title:   "Performance/TCO vs processor price (64GB per 1U)",
		Note:    "marked column: the design's modeled price at 200K volume",
		Headers: append([]string{"Processor"}, priceHeaders(prices)...),
	}
	rows, err := exp.Map(ctx, exp.FromContext(ctx), chip.TCOCatalog(ws),
		func(s chip.Spec) ([]string, error) {
			dc, err := tco.Compose(p, s, 64)
			if err != nil {
				return nil, err
			}
			modeled := tco.ChipPrice(s)
			row := []string{s.Name()}
			for _, price := range prices {
				cell := f3(dc.WithChipPrice(price).PerfPerTCO())
				if price == roundTo(modeled, prices) {
					cell += "*"
				}
				row = append(row, cell)
			}
			return row, nil
		})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

func priceHeaders(prices []float64) []string {
	out := make([]string, len(prices))
	for i, p := range prices {
		out[i] = fmt.Sprintf("$%.0f", p)
	}
	return out
}

// roundTo snaps x to the nearest element of grid.
func roundTo(x float64, grid []float64) float64 {
	best, bd := grid[0], abs(grid[0]-x)
	for _, g := range grid[1:] {
		if d := abs(g - x); d < bd {
			best, bd = g, d
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
