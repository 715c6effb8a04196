package dvfs

import (
	"math"
	"testing"

	"scaleout/internal/core"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

var ws = workload.Suite()

func pod() core.Pod { return core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar} }

func TestValidate(t *testing.T) {
	if err := Nominal().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []OperatingPoint{{0, 0.9}, {6, 0.9}, {2, 0.4}, {2, 1.5}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("point %v accepted", bad)
		}
	}
	if _, err := PodAt(pod(), tech.N40(), ws[0], OperatingPoint{9, 9}); err == nil {
		t.Fatal("bad point accepted by PodAt")
	}
}

func TestCurveShape(t *testing.T) {
	curve := DefaultCurve()
	if len(curve) < 5 {
		t.Fatal("curve too sparse")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].FreqGHz <= curve[i-1].FreqGHz || curve[i].VoltageV < curve[i-1].VoltageV {
			t.Fatalf("curve not monotone at %d", i)
		}
		if err := curve[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// At the nominal point the DVFS model must agree with the base pod
// model: 2GHz x suite-mean IPC.
func TestNominalConsistency(t *testing.T) {
	r, err := SuiteMean(pod(), tech.N40(), ws, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	wantGIPS := pod().IPC(ws) * tech.ClockGHz
	if math.Abs(r.GIPS-wantGIPS)/wantGIPS > 1e-12 {
		t.Fatalf("nominal GIPS %v, base model %v", r.GIPS, wantGIPS)
	}
	if math.Abs(r.PowerW-pod().Power(tech.N40())) > 1e-9 {
		t.Fatalf("nominal power %v, pod %v", r.PowerW, pod().Power(tech.N40()))
	}
}

// Throughput grows sublinearly with frequency (memory-bound), power
// superlinearly — so efficiency falls monotonically along the curve.
func TestDVFSShape(t *testing.T) {
	results, err := Sweep(pod(), tech.N40(), ws, DefaultCurve())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		prev, cur := results[i-1], results[i]
		fRatio := cur.Point.FreqGHz / prev.Point.FreqGHz
		if cur.GIPS <= prev.GIPS {
			t.Fatalf("throughput fell along the curve at %v", cur.Point)
		}
		if cur.GIPS/prev.GIPS >= fRatio {
			t.Fatalf("throughput superlinear in frequency at %v (memory-bound workloads cannot)", cur.Point)
		}
		// Power must grow faster than throughput along the curve (the
		// leakage share keeps the low end from being strictly
		// superlinear in f, but efficiency still declines).
		if cur.PowerW/prev.PowerW <= cur.GIPS/prev.GIPS {
			t.Fatalf("power grew slower than throughput at %v", cur.Point)
		}
		if cur.GIPSPerW >= prev.GIPSPerW {
			t.Fatalf("efficiency rose with frequency at %v", cur.Point)
		}
	}
	best, err := MostEfficient(results)
	if err != nil {
		t.Fatal(err)
	}
	if best.Point.FreqGHz >= Nominal().FreqGHz {
		t.Fatalf("efficiency sweet spot at %v, expected below nominal", best.Point)
	}
}

func TestEmpty(t *testing.T) {
	if _, err := SuiteMean(pod(), tech.N40(), nil, Nominal()); err == nil {
		t.Fatal("empty suite accepted")
	}
	if _, err := MostEfficient(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

// Downclocking 2.0 -> 1.5GHz costs much less than 25% of throughput:
// the memory-bound fraction of execution time does not slow down.
func TestMemoryBoundDownclocking(t *testing.T) {
	nom, err := SuiteMean(pod(), tech.N40(), ws, Nominal())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := SuiteMean(pod(), tech.N40(), ws, OperatingPoint{1.5, 0.79})
	if err != nil {
		t.Fatal(err)
	}
	loss := 1 - slow.GIPS/nom.GIPS
	if loss >= 0.25 {
		t.Fatalf("25%% downclock cost %v%% of throughput; memory-bound pods should lose less", loss*100)
	}
}
