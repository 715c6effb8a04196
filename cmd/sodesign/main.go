// Command sodesign explores custom Scale-Out Processor designs: evaluate
// a pod, compose a chip, stack it in 3D, or price it into a datacenter —
// the whole methodology on one configuration of your choosing.
//
// Usage:
//
//	sodesign -core ooo -cores 16 -llc 4                 # evaluate a pod + chip at 40nm
//	sodesign -core inorder -cores 32 -llc 2 -node 20nm  # at 20nm
//	sodesign -core ooo -cores 32 -llc 2 -dies 4         # 3D stack (both strategies)
//	sodesign -core ooo -cores 16 -llc 4 -tco            # datacenter perf/TCO
//	sodesign -sweep -core ooo                           # PD design-space sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"scaleout/internal/chip"
	"scaleout/internal/core"
	"scaleout/internal/noc"
	"scaleout/internal/stack3d"
	"scaleout/internal/tco"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func main() {
	coreFlag := flag.String("core", "ooo", "core type: conventional | ooo | inorder")
	cores := flag.Int("cores", 16, "cores per pod")
	llc := flag.Float64("llc", 4, "LLC capacity per pod (MB)")
	netFlag := flag.String("net", "crossbar", "pod interconnect: crossbar | mesh | ideal | fbfly | nocout")
	nodeFlag := flag.String("node", "40nm", "technology node: 40nm | 20nm | 3d")
	dies := flag.Int("dies", 1, "stacked logic dies (2-4 selects the 3D flow)")
	doTCO := flag.Bool("tco", false, "price the chip into a 20MW datacenter")
	memGB := flag.Int("mem", 64, "memory per 1U server for -tco (GB)")
	sweep := flag.Bool("sweep", false, "sweep the pod design space instead")
	flag.Parse()

	ws := workload.Suite()
	coreType, err := tech.ParseCoreType(*coreFlag)
	check(err)
	node, err := parseNode(*nodeFlag, *dies)
	check(err)
	kind, err := noc.ParseKind(*netFlag)
	check(err)

	if *sweep {
		runSweep(node, coreType, ws)
		return
	}

	pod := core.Pod{Core: coreType, Cores: *cores, LLCMB: *llc, Net: kind}
	fmt.Printf("pod %v (%s cores, %s):\n", pod, coreType, kind)
	fmt.Printf("  area %.1fmm2  power %.1fW  IPC %.1f  PD %.3f  peak BW %.1fGB/s\n",
		pod.Area(node), pod.Power(node), pod.IPC(ws), pod.PD(node, ws),
		pod.PeakBandwidthGBs(ws))

	if *dies > 1 {
		run3D(node, pod, *dies, ws)
		return
	}

	c, err := core.Compose(node, pod, ws)
	check(err)
	fmt.Printf("\nScale-Out Processor at %s: %d pods, %d channels (%s-limited)\n",
		node.Name, c.Pods, c.MemChannels, c.Limit)
	fmt.Printf("  die %.0fmm2  TDP %.0fW  IPC %.1f  PD %.3f  perf/W %.2f\n",
		c.DieArea(), c.Power(), c.IPC(), c.PD(), c.PerfPerWatt())

	if *doTCO {
		runTCO(c, *memGB, ws)
	}
}

func runSweep(node tech.Node, coreType tech.CoreType, ws []workload.Workload) {
	space := core.SweepSpace{
		Core: coreType, MaxCores: 64,
		LLCSizes: []float64{1, 2, 4, 8},
		Nets:     []noc.Kind{noc.Crossbar},
	}
	pts := core.Sweep(space, node, ws)
	opt, err := core.Optimal(pts)
	check(err)
	fmt.Printf("PD sweep (%s, crossbar pods at %s); optimum %v (PD %.3f):\n",
		coreType, node.Name, opt.Pod, opt.PD)
	fmt.Printf("%8s", "")
	for c := 1; c <= 64; c *= 2 {
		fmt.Printf("%8dc", c)
	}
	fmt.Println()
	for _, llcMB := range space.LLCSizes {
		fmt.Printf("%6.0fMB", llcMB)
		for c := 1; c <= 64; c *= 2 {
			p := core.Pod{Core: coreType, Cores: c, LLCMB: llcMB, Net: noc.Crossbar}
			fmt.Printf("%9.3f", p.PD(node, ws))
		}
		fmt.Println()
	}
}

func run3D(node tech.Node, pod core.Pod, dies int, ws []workload.Workload) {
	fmt.Printf("\n3D stacks (%d dies, %s budgets):\n", dies, node.Name)
	for _, s := range []stack3d.Strategy{stack3d.FixedPod, stack3d.FixedDistance} {
		c, err := stack3d.Compose3D(node, pod, dies, s, ws)
		check(err)
		fmt.Printf("  %-14s %d x %v  %d MCs  footprint %.0fmm2  power %.0fW  PD3D %.3f (%s-limited)\n",
			s, c.Pods, c.Pod, c.MemChannels, c.FootprintArea(), c.Power(), c.PD3D(), c.Limit)
	}
}

// tcoSpec describes the composed chip to the TCO model: evaluated on the
// suite, with the memory channels core.Compose provisioned for the pod's
// own interconnect rather than the ones Evaluate would choose.
func tcoSpec(c core.ScaleOutChip, ws []workload.Workload) chip.Spec {
	spec := chip.Spec{
		Org: chip.ScaleOutOrg, Node: c.Node, Core: c.Pod.Core,
		Cores: c.Cores(), LLCMB: c.LLCMB(), Pods: c.Pods, Net: noc.Crossbar,
	}
	spec.Evaluate(ws)
	spec.MemChannels = c.MemChannels
	return spec
}

func runTCO(c core.ScaleOutChip, memGB int, ws []workload.Workload) {
	dc, err := tco.Compose(tco.NewParams(), tcoSpec(c, ws), memGB)
	check(err)
	b := dc.MonthlyTCO()
	fmt.Printf("\n20MW datacenter (%dGB per 1U): %d sockets/server, %d racks\n",
		memGB, dc.Server.Sockets, dc.Racks)
	fmt.Printf("  chip price $%.0f  server price $%.0f  monthly TCO $%.1fM\n",
		dc.Server.ChipPrice, dc.ServerPrice(), b.Total()/1e6)
	fmt.Printf("  perf/TCO %.0f  perf/Watt %.1f\n", dc.PerfPerTCO(), dc.PerfPerWatt())
}

func parseNode(s string, dies int) (tech.Node, error) {
	switch strings.ToLower(s) {
	case "40nm", "40":
		if dies > 1 {
			return tech.N40For3D(), nil
		}
		return tech.N40(), nil
	case "20nm", "20":
		return tech.N20(), nil
	case "3d":
		return tech.N40For3D(), nil
	default:
		return tech.Node{}, fmt.Errorf("unknown node %q", s)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sodesign:", err)
		os.Exit(1)
	}
}
