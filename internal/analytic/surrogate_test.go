package analytic

import (
	"testing"

	"scaleout/internal/tech"
)

// refSurrogate is Surrogate written out one term at a time, as it was
// computed before the CPI stack and the demand had one home each: the
// MSHR cap on MLP, the five CPI terms in order, software scaling, the
// demand from a second access breakdown, the channel cap, the L1 MPKIs
// and the LLC miss ratio. Surrogate must match it bit for bit.
func refSurrogate(spec SurrogateSpec) Estimate {
	w, d := spec.Workload, spec.Design
	acc := w.AccessBreakdown(d.Core, d.LLCMB, d.Cores)
	lllc := d.LLCLatency()
	lmem := d.MemLatency()

	mlp := w.MLP.At(d.Core)
	if spec.MSHRs > 0 && float64(spec.MSHRs) < mlp {
		mlp = float64(spec.MSHRs)
	}
	cpi := 1 / w.BaseIPC.At(d.Core)
	cpi += acc.IHitAPKI / 1000 * lllc
	cpi += acc.DHitAPKI / 1000 * lllc * w.LLCOverlap.At(d.Core)
	cpi += acc.IMissMPKI / 1000 * lmem
	cpi += acc.DMissMPKI / 1000 * lmem / mlp
	ipc := 1 / cpi
	if spec.SWScaling {
		ipc *= w.SWEfficiency(d.Cores)
	}

	demand := refOffChipGBs(w, d, ipc)
	if spec.MemChannels > 0 {
		supply := float64(spec.MemChannels) * tech.DDR3UsableGBs
		if demand > supply {
			ipc *= supply / demand
			demand = supply
		}
	}

	est := Estimate{
		PerCoreIPC: ipc,
		AppIPC:     float64(d.Cores) * ipc,
		OffChipGBs: demand,
		L1IMPKI:    acc.IHitAPKI + acc.IMissMPKI,
		L1DMPKI:    acc.DHitAPKI + acc.DMissMPKI,
	}
	if total := acc.IHitAPKI + acc.DHitAPKI + acc.IMissMPKI + acc.DMissMPKI; total > 0 {
		est.LLCMissPct = 100 * (acc.IMissMPKI + acc.DMissMPKI) / total
	}
	return est
}

// TestSurrogateMatchesReferenceBitForBit pins the surrogate's numbers,
// which no figure prints: every Estimate field equals the reference's
// (==, not a tolerance) over the Chapter-3 design space and the
// Chapter-6 crossbar space (evaluationSpace) for every core type and
// suite workload, MSHR file, software-scaling setting and channel count.
func TestSurrogateMatchesReferenceBitForBit(t *testing.T) {
	var points, mshrCapped, channelCapped, swDerated int
	for _, g := range evaluationSpace() {
		for _, d := range g {
			for _, w := range suite() {
				for _, mshrs := range []int{0, 1, 2, 64} {
					for _, sw := range []bool{false, true} {
						for _, channels := range []int{0, 1, 8} {
							spec := SurrogateSpec{Workload: w, Design: d, MSHRs: mshrs, SWScaling: sw, MemChannels: channels}
							want := refSurrogate(spec)
							if got := Surrogate(spec); got != want {
								t.Fatalf("Surrogate(%s, %+v, mshrs %d, sw %v, channels %d) = %+v, reference %+v",
									w.Name, d, mshrs, sw, channels, got, want)
							}
							points++
							if mshrs > 0 && float64(mshrs) < w.MLP.At(d.Core) {
								mshrCapped++
							}
							if channels > 0 && want.OffChipGBs == float64(channels)*tech.DDR3UsableGBs {
								channelCapped++
							}
							if sw && w.SWEfficiency(d.Cores) < 1 {
								swDerated++
							}
						}
					}
				}
			}
		}
	}
	// Every branch of the surrogate ran: the MSHR cap, the channel cap
	// and the software derating each bound some points.
	if points != 3*(4*9*3+5*6*3)*7*4*2*3 || mshrCapped == 0 || channelCapped == 0 || swDerated == 0 {
		t.Fatalf("covered %d points: %d MSHR-capped, %d channel-capped, %d derated", points, mshrCapped, channelCapped, swDerated)
	}
}
