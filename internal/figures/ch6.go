package figures

import (
	"context"
	"fmt"

	"scaleout/internal/analytic"
	"scaleout/internal/core"
	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/stack3d"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func init() {
	register("fig6.4", func(ctx context.Context) (Table, error) { return pd3DSweep(ctx, "fig6.4", tech.OoO) })
	register("fig6.5", func(ctx context.Context) (Table, error) { return strategies("fig6.5", tech.OoO, []int{1, 2, 4}) })
	register("fig6.6", func(ctx context.Context) (Table, error) { return pd3DSweep(ctx, "fig6.6", tech.InOrder) })
	register("fig6.7", func(ctx context.Context) (Table, error) { return strategies("fig6.7", tech.InOrder, []int{1, 2, 3}) })
	register("table6.2", func(ctx context.Context) (Table, error) { return table62() })
}

// pd3DSweep renders Figures 6.4/6.6: pod performance density across core
// counts and LLC capacities (2-32MB) for 1, 2, and 4 stacked logic dies.
// Stacking folds the pod vertically, shortening horizontal wires, so PD
// rises with die count at every configuration. One engine point
// evaluates one (LLC, cores) row across the three die counts; folding
// changes only the pod's wires, so the three pods share each workload's
// access breakdown.
func pd3DSweep(ctx context.Context, id string, coreType tech.CoreType) (Table, error) {
	ws := workload.Suite()
	n := tech.N40For3D()
	t := Table{
		ID:      id,
		Title:   fmt.Sprintf("3D performance density sweep (%s cores)", coreType),
		Note:    "pod PD at 1/2/4 dies; fixed-pod folding",
		Headers: []string{"LLC(MB)", "Cores", "d=1", "d=2", "d=4"},
	}
	type rowSpec struct {
		llc   float64
		cores int
	}
	var specs []rowSpec
	for _, llc := range []float64{2, 4, 8, 16, 32} {
		for c := 4; c <= 64; c *= 2 {
			specs = append(specs, rowSpec{llc, c})
		}
	}
	rows, err := exp.Map(ctx, exp.FromContext(ctx), specs, func(s rowSpec) ([]string, error) {
		base := core.Pod{Core: coreType, Cores: s.cores, LLCMB: s.llc, Net: noc.Crossbar}
		row := []string{fg(s.llc), itoa(s.cores)}
		var pods [3]core.Pod
		var ds [3]analytic.Design
		for i, dies := range []int{1, 2, 4} {
			pods[i] = stack3d.PodAt(base, n, dies, stack3d.FixedPod)
			ds[i] = pods[i].Design()
		}
		for i, perf := range analytic.EvaluateSuites(ws, ds[:]...) {
			// Per-pod density, independent of chip-level replication.
			row = append(row, f3(pods[i].PDFrom(n, perf)))
		}
		return row, nil
	})
	if err != nil {
		return t, err
	}
	t.Rows = rows
	return t, nil
}

// base3DPod returns the PD-optimal single-die pod for the Chapter-6 node.
func base3DPod(coreType tech.CoreType) (core.Pod, error) {
	return stack3d.Optimal2DPod(tech.N40For3D(), coreType, workload.Suite())
}

// strategies renders Figures 6.5/6.7: chip-level 3D performance density
// of the fixed-pod and fixed-distance strategies across die counts.
func strategies(id string, coreType tech.CoreType, dieCounts []int) (Table, error) {
	ws := workload.Suite()
	n := tech.N40For3D()
	base, err := base3DPod(coreType)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      id,
		Title:   fmt.Sprintf("3D Scale-Out Processors (%s): fixed-pod vs fixed-distance", coreType),
		Note:    fmt.Sprintf("base 2D pod %s; PD = perf / (footprint x dies)", base),
		Headers: []string{"Dies", "Strategy", "Config", "Pods", "MCs", "PD3D"},
	}
	for _, dies := range dieCounts {
		for _, s := range []stack3d.Strategy{stack3d.FixedPod, stack3d.FixedDistance} {
			if dies == 1 && s == stack3d.FixedDistance {
				continue // identical to fixed-pod at one die
			}
			c, err := stack3d.Compose3D(n, base, dies, s, ws)
			if err != nil {
				return t, err
			}
			t.AddRow(itoa(dies), s.String(), c.Pod.String(), itoa(c.Pods),
				itoa(c.MemChannels), f3(c.PD3D()))
		}
	}
	return t, nil
}

// table62 renders Table 6.2: the specification of 2D and 3D Scale-Out
// Processors for both core types and both strategies.
func table62() (Table, error) {
	ws := workload.Suite()
	n := tech.N40For3D()
	t := Table{
		ID:    "table6.2",
		Title: "Specification of 2D and 3D Scale-Out Processors (40nm, DDR4, 250W)",
		Headers: []string{"Core", "Dies", "Configuration", "Pods", "Pod", "MCs",
			"PD", "Power(W)", "Limit"},
	}
	for _, coreType := range []tech.CoreType{tech.OoO, tech.InOrder} {
		base, err := base3DPod(coreType)
		if err != nil {
			return t, err
		}
		maxDies := 4
		if coreType == tech.InOrder {
			maxDies = 3 // 4-die in-order stacks are bandwidth-saturated
		}
		for dies := 1; dies <= maxDies; dies *= 2 {
			if coreType == tech.InOrder && dies == 4 {
				dies = 3
			}
			for _, s := range []stack3d.Strategy{stack3d.FixedPod, stack3d.FixedDistance} {
				name := s.String()
				if dies == 1 {
					if s == stack3d.FixedDistance {
						continue
					}
					name = "2D Pod"
				}
				c, err := stack3d.Compose3D(n, base, dies, s, ws)
				if err != nil {
					return t, err
				}
				t.AddRow(coreType.String(), itoa(dies), name, itoa(c.Pods),
					c.Pod.String(), itoa(c.MemChannels), f3(c.PD3D()),
					f0(c.Power()), string(c.Limit))
			}
		}
	}
	return t, nil
}
