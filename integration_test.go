package scaleout

import (
	"testing"

	"scaleout/internal/core"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// TestQuickstartFlow is the README's quickstart as an executable test:
// sweep the design space, select a pod with the near-optimal rule,
// compose the Scale-Out Processor, and land on the thesis's headline
// configuration.
func TestQuickstartFlow(t *testing.T) {
	ws := workload.Suite()
	node := tech.N40()

	space := core.SweepSpace{
		Core:     tech.OoO,
		MaxCores: 64,
		LLCSizes: []float64{1, 2, 4, 8},
		Nets:     []noc.Kind{noc.Crossbar},
	}
	points := core.Sweep(space, node, ws)
	pod, err := core.NearOptimal(points, 0.05, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pod.Pod.Cores != 16 {
		t.Fatalf("selected pod %v, expected a 16-core pod", pod.Pod)
	}

	chip, err := core.Compose(node, pod.Pod, ws)
	if err != nil {
		t.Fatal(err)
	}
	if chip.Pods != 2 {
		t.Fatalf("composed %d pods at 40nm, thesis composes 2", chip.Pods)
	}
	if chip.DieArea() > node.MaxDieAreaMM2 || chip.Power() > node.TDPWatts {
		t.Fatalf("chip exceeds budgets: %.0fmm2 %.0fW", chip.DieArea(), chip.Power())
	}

	// Technology scaling without redesign: the same pod, more of them.
	chip20, err := core.Compose(tech.N20(), pod.Pod, ws)
	if err != nil {
		t.Fatal(err)
	}
	if chip20.Pods <= chip.Pods {
		t.Fatalf("20nm composed %d pods, not more than 40nm's %d", chip20.Pods, chip.Pods)
	}
	if chip20.PD() <= chip.PD() {
		t.Fatal("technology scaling did not improve performance density")
	}
}

// TestSimulatorAgreesWithMethodology closes the loop end to end: the pod
// the methodology selects, when handed to the cycle simulator, delivers
// per-core performance within the validation window of the analytic
// prediction that selected it.
func TestSimulatorAgreesWithMethodology(t *testing.T) {
	ws := workload.Suite()
	pod := core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar}
	predicted := pod.IPC(ws)

	var measured float64
	for _, w := range ws {
		r, err := sim.Run(sim.Config{
			Workload: w, CoreType: pod.Core, Cores: pod.Cores, LLCMB: pod.LLCMB,
			Net: noc.New(noc.Crossbar, pod.Cores), DisableSWScaling: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		measured += r.AppIPC
	}
	measured /= float64(len(ws))

	if ratio := measured / predicted; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("simulator %.2f vs analytic %.2f (ratio %.2f) outside the Fig 3.3 window",
			measured, predicted, ratio)
	}
}
