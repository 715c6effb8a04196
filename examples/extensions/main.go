// Extensions: the future-work directions the thesis names (Section 8.1),
// built on the pod abstraction — heterogeneous Scale-Out Processors
// mixing OoO and in-order pods, voltage-frequency scaling on pods, and
// the structural simulator cross-checking the statistical calibration
// with real cache arrays.
package main

import (
	"fmt"
	"log"

	"scaleout/internal/core"
	"scaleout/internal/dvfs"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func main() {
	ws := workload.Suite()
	n := tech.N40()
	podO := core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar}
	podI := core.Pod{Core: tech.InOrder, Cores: 32, LLCMB: 2, Net: noc.Crossbar}

	fmt.Println("== Heterogeneous Scale-Out Processors (OoO x in-order pods) ==")
	mixes, err := core.EnumerateHetero(n, podO, podI, ws)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feasible mixes at %s: %d; Pareto frontier:\n", n.Name, len(mixes))
	for _, c := range core.ParetoHetero(mixes) {
		fmt.Printf("  %d x %v + %d x %v: %3d cores, %.0fmm2, %.0fW, IPC %.1f, PD %.3f\n",
			c.CountA, c.PodA, c.CountB, c.PodB, c.Cores(), c.DieArea(), c.Power(),
			c.IPC(), c.PD())
	}

	fmt.Println("\n== DVFS on the 16-core pod ==")
	results, err := dvfs.Sweep(podO, n, ws, dvfs.DefaultCurve())
	if err != nil {
		log.Fatal(err)
	}
	best, err := dvfs.MostEfficient(results)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		mark := "  "
		if r.Point == best.Point {
			mark = "<- most efficient"
		}
		fmt.Printf("  %-14s %5.1f GIPS  %5.1fW  %.2f GIPS/W %s\n",
			r.Point, r.GIPS, r.PowerW, r.GIPSPerW, mark)
	}

	fmt.Println("\n== Structural simulation (real L1/LLC arrays, synthetic streams) ==")
	for _, name := range []string{workload.WebSearch, workload.MediaStreaming} {
		w, _ := workload.ByName(name)
		r, err := sim.RunStructural(sim.StructuralConfig{
			Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s emergent L1I %.1f MPKI, L1D %.1f MPKI, LLC miss %.1f%%, IPC %.2f\n",
			w.Name, r.L1IMPKI, r.L1DMPKI, r.LLCMissPct, r.AppIPC)
	}
}
