// Podsweep: the full Chapter 2-3 design-space study, and the canonical
// usage example for the experiment engine (internal/exp). Compares every
// server-processor organization (conventional, tiled, LLC-optimal,
// instruction-replicated, ideal, Scale-Out) at 40nm and 20nm, prints the
// pod performance-density surfaces for both core types, and validates
// the analytic model against the cycle simulator.
//
// The validation sweep is declared as a batch of sim.Configs and handed
// to the engine, which fans the independent points out across
// GOMAXPROCS workers and returns results in input order — the pattern
// every generator in internal/figures follows.
package main

import (
	"context"
	"fmt"
	"log"

	"scaleout/internal/analytic"
	"scaleout/internal/chip"
	"scaleout/internal/core"
	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func main() {
	ws := workload.Suite()

	fmt.Println("== Processor catalog (the thesis's Tables 2.3/2.4/3.2) ==")
	for _, node := range []tech.Node{tech.N40(), tech.N20()} {
		fmt.Printf("-- %s --\n", node.Name)
		for _, s := range chip.Catalog(node, ws) {
			fmt.Printf("  %-36s PD %.3f  %3d cores  %4.0fMB  %d MCs  %3.0fmm2  %3.0fW\n",
				s.Name(), s.PD(), s.Cores, s.LLCMB, s.MemChannels, s.DieArea(), s.Power())
		}
	}

	fmt.Println("\n== Pod PD surface (crossbar, 40nm) ==")
	for _, coreType := range []tech.CoreType{tech.OoO, tech.InOrder} {
		fmt.Printf("-- %s cores --\n      ", coreType)
		for c := 8; c <= 64; c *= 2 {
			fmt.Printf("%6dc", c)
		}
		fmt.Println()
		for _, llc := range []float64{1, 2, 4, 8} {
			fmt.Printf("%3.0fMB ", llc)
			for c := 8; c <= 64; c *= 2 {
				p := core.Pod{Core: coreType, Cores: c, LLCMB: llc, Net: noc.Crossbar}
				fmt.Printf("%7.3f", p.PD(tech.N40(), ws))
			}
			fmt.Println()
		}
	}

	fmt.Println("\n== Model validation: simulator vs analytic (16-core pod, 4MB) ==")
	// Declare one sweep point per workload and run the batch on the
	// engine; results come back in input order.
	cfgs := make([]sim.Config, len(ws))
	for i, w := range ws {
		cfgs[i] = sim.Config{
			Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4,
			Net: noc.New(noc.Crossbar, 16), DisableSWScaling: true,
		}
	}
	ctx := exp.WithEngine(context.Background(), exp.Default())
	rs, err := exp.Sims(ctx, cfgs)
	if err != nil {
		log.Fatal(err)
	}
	for i, w := range ws {
		model := analytic.Evaluate(&w, analytic.NewDesign(tech.OoO, 16, 4, noc.Crossbar)).IPC
		fmt.Printf("  %-16s sim %5.2f  model %5.2f  (%+.1f%%)\n",
			w.Name, rs[i].AppIPC, model, 100*(rs[i].AppIPC-model)/model)
	}
}
