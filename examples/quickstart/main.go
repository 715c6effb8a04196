// Quickstart: derive a performance-density-optimal pod with the scale-out
// design methodology and compose a Scale-Out Processor from it — the
// Chapter-3 workflow in a dozen calls.
package main

import (
	"fmt"
	"log"

	"scaleout/internal/core"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func main() {
	ws := workload.Suite()
	node := tech.N40()

	// 1. Sweep the pod design space: crossbar pods, 1-8MB LLCs, up to 64
	//    out-of-order cores, evaluated with the analytic model.
	space := core.SweepSpace{
		Core:     tech.OoO,
		MaxCores: 64,
		LLCSizes: []float64{1, 2, 4, 8},
		Nets:     []noc.Kind{noc.Crossbar},
	}
	points := core.Sweep(space, node, ws)

	// 2. Find the PD-optimal configuration, then apply the thesis's
	//    engineering judgment: prefer a pod of at most 16 cores if one
	//    sits within 5% of the optimum (crossbar complexity, software
	//    scalability, coherence).
	opt, err := core.Optimal(points)
	if err != nil {
		log.Fatal(err)
	}
	pod, err := core.NearOptimal(points, 0.05, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PD-optimal pod:  %v  (PD %.3f IPC/mm2)\n", opt.Pod, opt.PD)
	fmt.Printf("selected pod:    %v  (PD %.3f, within 5%% of optimum)\n", pod.Pod, pod.PD)
	fmt.Printf("pod area %.0fmm2, power %.0fW, worst-case bandwidth %.1fGB/s\n\n",
		pod.Pod.Area(node), pod.Pod.Power(node), pod.Pod.PeakBandwidthGBs(ws))

	// 3. Compose a Scale-Out Processor: replicate the pod — each a
	//    stand-alone server with no inter-pod coherence — to the chip's
	//    area, power, and bandwidth budgets.
	chip, err := core.Compose(node, pod.Pod, ws)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Scale-Out Processor at %s: %d x %v pods, %d memory channels (%s-limited)\n",
		node.Name, chip.Pods, chip.Pod, chip.MemChannels, chip.Limit)
	fmt.Printf("  die %.0fmm2  TDP %.0fW  suite-mean IPC %.1f  PD %.3f  perf/W %.2f\n",
		chip.DieArea(), chip.Power(), chip.IPC(), chip.PD(), chip.PerfPerWatt())

	// 4. Project to 20nm: the same pod, more of them — optimality-
	//    preserving scaling with no redesign.
	chip20, err := core.Compose(tech.N20(), pod.Pod, ws)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at %s: %d pods, %d channels, PD %.3f (%.1fx the 40nm design)\n",
		tech.N20().Name, chip20.Pods, chip20.MemChannels, chip20.PD(),
		chip20.PD()/chip.PD())
}
