// Package dvfs adds voltage-frequency scaling to pods — an extension the
// thesis's fixed 2GHz evaluation leaves open (its cores never clock up
// because "these approaches are not energy efficient", Chapter 1; this
// package quantifies exactly that trade-off for pods).
//
// The model: on-chip latencies (issue, LLC banks, interconnect) are
// measured in cycles and scale with the clock; DRAM latency is wall-
// clock, so a faster core waits more cycles per miss. Dynamic power
// scales with f*V^2 along the voltage-frequency curve; leakage with V.
// Memory-bound scale-out workloads therefore gain little from clocking
// up and lose little from clocking down — pods have an energy-efficiency
// sweet spot below nominal frequency.
package dvfs

import (
	"fmt"

	"scaleout/internal/analytic"
	"scaleout/internal/core"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// OperatingPoint is one voltage-frequency pair.
type OperatingPoint struct {
	FreqGHz  float64
	VoltageV float64
}

// String formats the point as "1.5GHz@0.80V".
func (p OperatingPoint) String() string {
	return fmt.Sprintf("%.1fGHz@%.2fV", p.FreqGHz, p.VoltageV)
}

// Nominal is the thesis's fixed operating point: 2GHz at 0.9V (40nm).
func Nominal() OperatingPoint { return OperatingPoint{FreqGHz: 2.0, VoltageV: 0.9} }

// DefaultCurve returns a typical 40nm voltage-frequency curve around the
// nominal point.
func DefaultCurve() []OperatingPoint {
	return []OperatingPoint{
		{1.0, 0.70},
		{1.2, 0.74},
		{1.5, 0.79},
		{1.8, 0.86},
		{2.0, 0.90},
		{2.2, 0.96},
		{2.5, 1.05},
	}
}

// Validate reports an error for non-physical points.
func (p OperatingPoint) Validate() error {
	if p.FreqGHz <= 0 || p.FreqGHz > 5 {
		return fmt.Errorf("dvfs: frequency %vGHz out of range", p.FreqGHz)
	}
	if p.VoltageV < 0.5 || p.VoltageV > 1.3 {
		return fmt.Errorf("dvfs: voltage %vV out of range", p.VoltageV)
	}
	return nil
}

// Result reports a pod's behaviour at one operating point.
type Result struct {
	Point     OperatingPoint
	GIPS      float64 // aggregate giga-instructions per second
	PowerW    float64 // pod power (cores + LLC)
	GIPSPerW  float64
	PerCoreHz float64 // effective per-core instruction rate (GHz equivalents)
}

// leakageFrac is the leakage share of pod power at the nominal point.
const leakageFrac = 0.3

// PodAt evaluates a pod running workload w at an operating point.
//
// Throughput: the workload's CPI stack is rebuilt with the off-chip
// terms rescaled — a miss costs the DRAM access and its queueing
// (tech.MemoryLatencyNanos + analytic.MemQueueNanos) in wall-clock time,
// i.e. more cycles at higher clocks — then converted to instructions per
// second at the point's frequency.
func PodAt(p core.Pod, n tech.Node, w workload.Workload, op OperatingPoint) (Result, error) {
	if err := op.Validate(); err != nil {
		return Result{}, err
	}
	d := p.Design()
	acc := w.AccessBreakdown(p.Core, p.LLCMB, p.Cores)
	lllc := d.LLCLatency() // cycles: scales with the clock by construction

	// Off-chip latency: the on-chip portion (bank + network) is cycles;
	// the DRAM core and queueing are wall-clock and rescale with f.
	wallCycles := (tech.MemoryLatencyNanos + analytic.MemQueueNanos) * op.FreqGHz
	lat := workload.Latencies{IFetch: lllc, Data: lllc, Mem: d.OnChipMissLatency() + wallCycles}

	perCore := op.FreqGHz / w.CPI(p.Core, acc, lat, w.MLP.At(p.Core)) // GIPS per core
	gips := perCore * float64(p.Cores)

	nom := Nominal()
	nominalPower := p.Power(n)
	dyn := nominalPower * (1 - leakageFrac) *
		(op.FreqGHz / nom.FreqGHz) * (op.VoltageV / nom.VoltageV) * (op.VoltageV / nom.VoltageV)
	leak := nominalPower * leakageFrac * (op.VoltageV / nom.VoltageV)
	power := dyn + leak

	return Result{
		Point:     op,
		GIPS:      gips,
		PowerW:    power,
		GIPSPerW:  gips / power,
		PerCoreHz: perCore,
	}, nil
}

// SuiteMean evaluates the pod at the operating point averaged across the
// workload suite.
func SuiteMean(p core.Pod, n tech.Node, ws []workload.Workload, op OperatingPoint) (Result, error) {
	if len(ws) == 0 {
		return Result{}, fmt.Errorf("dvfs: empty suite")
	}
	var agg Result
	for _, w := range ws {
		r, err := PodAt(p, n, w, op)
		if err != nil {
			return Result{}, err
		}
		agg.GIPS += r.GIPS
		agg.PowerW = r.PowerW // identical across workloads (peak power model)
	}
	agg.Point = op
	agg.GIPS /= float64(len(ws))
	agg.PerCoreHz = agg.GIPS / float64(p.Cores)
	agg.GIPSPerW = agg.GIPS / agg.PowerW
	return agg, nil
}

// Sweep evaluates the pod across the whole curve.
func Sweep(p core.Pod, n tech.Node, ws []workload.Workload, curve []OperatingPoint) ([]Result, error) {
	out := make([]Result, 0, len(curve))
	for _, op := range curve {
		r, err := SuiteMean(p, n, ws, op)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MostEfficient returns the sweep's best GIPS-per-Watt point.
func MostEfficient(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, fmt.Errorf("dvfs: empty sweep")
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.GIPSPerW > best.GIPSPerW {
			best = r
		}
	}
	return best, nil
}
