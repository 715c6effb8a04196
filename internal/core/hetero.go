package core

import (
	"fmt"
	"math"

	"scaleout/internal/analytic"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// HeteroChip is a heterogeneous Scale-Out Processor: two pod types on
// one die — e.g. out-of-order pods for latency-critical services next to
// in-order pods for batch throughput (the thesis's Section 8.1 names
// heterogeneous organizations as future work; pods make it trivial
// because no inter-pod infrastructure exists to reconcile).
//
// EnumerateHetero builds it: every mix keeps both pods' evaluations on
// the suite it was enumerated for, and its IPC, PD and perf/Watt derive
// from those. A HeteroChip built any other way reports zero for them.
type HeteroChip struct {
	Node        tech.Node
	PodA, PodB  Pod
	CountA      int
	CountB      int
	MemChannels int

	perfA, perfB analytic.Perf // Pod.Perf of PodA and PodB
}

// DieArea returns the chip area across both pod types plus interfaces.
func (c HeteroChip) DieArea() float64 {
	return float64(c.CountA)*c.PodA.Area(c.Node) + float64(c.CountB)*c.PodB.Area(c.Node) +
		float64(c.MemChannels)*tech.MemIfaceAreaMM2 + tech.SoCMiscAreaMM2
}

// Power returns the chip TDP.
func (c HeteroChip) Power() float64 {
	return float64(c.CountA)*c.PodA.Power(c.Node) + float64(c.CountB)*c.PodB.Power(c.Node) +
		float64(c.MemChannels)*tech.MemIfacePowerW + tech.SoCMiscPowerW
}

// IPC returns the aggregate suite-mean IPC of all pods.
func (c HeteroChip) IPC() float64 {
	return float64(c.CountA)*c.perfA.IPC + float64(c.CountB)*c.perfB.IPC
}

// PD returns the chip performance density.
func (c HeteroChip) PD() float64 { return c.IPC() / c.DieArea() }

// PerfPerWatt returns aggregate IPC per Watt.
func (c HeteroChip) PerfPerWatt() float64 { return c.IPC() / c.Power() }

// Cores returns the total core count.
func (c HeteroChip) Cores() int {
	return c.CountA*c.PodA.Cores + c.CountB*c.PodB.Cores
}

// feasible reports whether the mix fits the node's budgets, recording
// the provisioned channel count.
func (c *HeteroChip) feasible() bool {
	demand := float64(c.CountA)*c.perfA.PeakGBs +
		float64(c.CountB)*c.perfB.PeakGBs
	ch := int(math.Ceil(demand / c.Node.Memory.UsableGBs()))
	if ch < 1 {
		ch = 1
	}
	if ch > tech.MaxMemoryInterfaces {
		return false
	}
	c.MemChannels = ch
	return c.DieArea() <= c.Node.MaxDieAreaMM2 && c.Power() <= c.Node.TDPWatts
}

// EnumerateHetero returns every feasible (countA, countB) mix of the two
// pods at the node, including the homogeneous endpoints. Mixes are
// ordered by countA. Each pod is evaluated on ws once, and every mix
// carries both evaluations.
func EnumerateHetero(n tech.Node, podA, podB Pod, ws []workload.Workload) ([]HeteroChip, error) {
	perfA, perfB := podA.Perf(ws), podB.Perf(ws)
	var out []HeteroChip
	maxA := int(n.MaxDieAreaMM2/podA.Area(n)) + 1
	maxB := int(n.MaxDieAreaMM2/podB.Area(n)) + 1
	for a := 0; a <= maxA; a++ {
		for b := 0; b <= maxB; b++ {
			if a == 0 && b == 0 {
				continue
			}
			c := HeteroChip{Node: n, PodA: podA, PodB: podB, CountA: a, CountB: b, perfA: perfA, perfB: perfB}
			if c.feasible() {
				out = append(out, c)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no feasible mix of %v and %v at %s", podA, podB, n.Name)
	}
	return out, nil
}

// ParetoHetero filters the mixes to the Pareto frontier over
// (latency-capable throughput, total throughput): a mix survives if no
// other mix has both more pod-A performance and more total performance.
func ParetoHetero(mixes []HeteroChip) []HeteroChip {
	type scored struct {
		c     HeteroChip
		aPerf float64
		total float64
	}
	ss := make([]scored, len(mixes))
	for i, c := range mixes {
		ss[i] = scored{c, float64(c.CountA) * c.perfA.IPC, c.IPC()}
	}
	var out []HeteroChip
	for i, s := range ss {
		dominated := false
		for j, o := range ss {
			if i == j {
				continue
			}
			if o.aPerf >= s.aPerf && o.total >= s.total &&
				(o.aPerf > s.aPerf || o.total > s.total) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s.c)
		}
	}
	return out
}
