package analytic

import (
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// The reference definitions below are the model written out one
// quantity at a time — every per-core IPC its own access breakdown,
// latencies and CPI stack, every demand a second breakdown — as the
// figures computed it before evaluations were fused. The fused entry
// points must match them bit for bit: the same floating-point
// operations in the same order, so no figure moves by even one ulp.

func refPerCoreIPC(w workload.Workload, d Design) float64 {
	acc := w.AccessBreakdown(d.Core, d.LLCMB, d.Cores)
	lllc := d.LLCLatency()
	lmem := d.MemLatency()

	cpi := 1 / w.BaseIPC.At(d.Core)
	cpi += acc.IHitAPKI / 1000 * lllc
	cpi += acc.DHitAPKI / 1000 * lllc * w.LLCOverlap.At(d.Core)
	cpi += acc.IMissMPKI / 1000 * lmem
	cpi += acc.DMissMPKI / 1000 * lmem / w.MLP.At(d.Core)
	return 1 / cpi
}

func refOffChipGBs(w workload.Workload, d Design, ipc float64) float64 {
	mpki := w.AccessBreakdown(d.Core, d.LLCMB, d.Cores).MemMPKITotal()
	linesPerInstr := mpki / 1000 * (1 + w.WritebackFrac)
	instrPerSec := ipc * tech.ClockGHz * 1e9 * float64(d.Cores)
	return instrPerSec * linesPerInstr * tech.CacheLineBytes / 1e9
}

func refPeakDemandGBs(w workload.Workload, d Design, ipc float64) float64 {
	return refOffChipGBs(w, d, ipc) * w.BWBurstFactor
}

func refSuite(ws []workload.Workload, d Design) Perf {
	if len(ws) == 0 {
		return Perf{}
	}
	var chip, perCore, peak float64
	for _, w := range ws {
		chip += float64(d.Cores) * refPerCoreIPC(w, d)
		perCore += refPerCoreIPC(w, d)
		if demand := refPeakDemandGBs(w, d, refPerCoreIPC(w, d)); demand > peak {
			peak = demand
		}
	}
	return Perf{IPC: chip / float64(len(ws)), PerCoreIPC: perCore / float64(len(ws)), PeakGBs: peak}
}

// evaluationSpace is the Chapter-3 design space (1-256 cores, 1-8MB,
// ideal/crossbar/mesh) and the Chapter-6 crossbar space (2-64 cores,
// 2-32MB) for all three core types, each as groups of designs that
// differ only in their interconnect — the shape EvaluateSuites shares
// breakdowns across. The Chapter-6 groups add the shortened wires of
// pods folded over 2 and 4 dies.
func evaluationSpace() [][]Design {
	var groups [][]Design
	for _, core := range []tech.CoreType{tech.Conventional, tech.OoO, tech.InOrder} {
		for _, llc := range []float64{1, 2, 4, 8} {
			for c := 1; c <= 256; c *= 2 {
				groups = append(groups, []Design{
					NewDesign(core, c, llc, noc.Ideal),
					NewDesign(core, c, llc, noc.Crossbar),
					NewDesign(core, c, llc, noc.Mesh),
				})
			}
		}
		for _, llc := range []float64{2, 4, 8, 16, 32} {
			for c := 2; c <= 64; c *= 2 {
				var g []Design
				for _, delta := range []float64{0, -1.5, -3} {
					d := NewDesign(core, c, llc, noc.Crossbar)
					d.Net.WireDelta = delta
					g = append(g, d)
				}
				groups = append(groups, g)
			}
		}
	}
	return groups
}

func TestEvaluateSuiteMatchesReferenceBitForBit(t *testing.T) {
	ws := suite()
	// Past eight workloads the breakdowns spill from the stack buffer.
	suites := [][]workload.Workload{ws, ws[:1], ws[3:5], append(ws[:len(ws):len(ws)], ws...), nil}
	designs := 0
	for _, g := range evaluationSpace() {
		for _, s := range suites {
			shared := EvaluateSuites(s, g...)
			for i, d := range g {
				want := refSuite(s, d)
				if got := EvaluateSuite(s, d); got != want {
					t.Fatalf("EvaluateSuite(%d workloads, %+v) = %+v, reference %+v", len(s), d, got, want)
				}
				if shared[i] != want {
					t.Fatalf("EvaluateSuites(%d workloads, ...)[%d] = %+v, reference %+v", len(s), i, shared[i], want)
				}
			}
		}
		for _, d := range g {
			for _, w := range ws {
				ipc := refPerCoreIPC(w, d)
				want := Perf{IPC: float64(d.Cores) * ipc, PerCoreIPC: ipc, PeakGBs: refPeakDemandGBs(w, d, ipc)}
				if got := Evaluate(&w, d); got != want {
					t.Fatalf("Evaluate(%s, %+v) = %+v, reference %+v", w.Name, d, got, want)
				}
				if w.PeakOffChipGBs(w.AccessBreakdown(d.Core, d.LLCMB, d.Cores), d.Cores, ipc) != want.PeakGBs {
					t.Fatalf("PeakOffChipGBs of %s on %+v disagrees with the reference", w.Name, d)
				}
			}
			designs++
		}
	}
	if designs != 3*(4*9*3+5*6*3) {
		t.Fatalf("covered %d designs", designs)
	}
}

// Designs that do not share a breakdown — different core counts or LLC
// capacities — are each evaluated on their own breakdown.
func TestEvaluateSuitesMixedDesigns(t *testing.T) {
	ws := suite()
	ds := []Design{
		NewDesign(tech.OoO, 16, 4, noc.Crossbar),
		NewDesign(tech.OoO, 16, 8, noc.Crossbar),
		NewDesign(tech.OoO, 32, 8, noc.Crossbar),
		NewDesign(tech.InOrder, 32, 8, noc.Crossbar),
		NewDesign(tech.InOrder, 32, 8, noc.Mesh),
	}
	for i, got := range EvaluateSuites(ws, ds...) {
		if want := refSuite(ws, ds[i]); got != want {
			t.Fatalf("design %d: %+v, reference %+v", i, got, want)
		}
	}
	if got := EvaluateSuites(ws); len(got) != 0 {
		t.Fatalf("no designs: %v", got)
	}
}
