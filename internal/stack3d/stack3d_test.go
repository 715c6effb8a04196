package stack3d

import (
	"math"
	"testing"

	"scaleout/internal/core"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

var ws = workload.Suite()

func node() tech.Node { return tech.N40For3D() }

func basePodOoO(t *testing.T) core.Pod {
	t.Helper()
	p, err := Optimal2DPod(node(), tech.OoO, ws)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func basePodIO(t *testing.T) core.Pod {
	t.Helper()
	p, err := Optimal2DPod(node(), tech.InOrder, ws)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The Chapter-6 2D baselines: small-LLC crossbar pods. The thesis lands
// on 32c/2MB (OoO) and 64c/2MB (in-order); our flat peak may pick the
// neighbouring 16-32 core point but must keep the 2MB LLC.
func TestOptimal2DPods(t *testing.T) {
	o := basePodOoO(t)
	if o.LLCMB != 2 || o.Cores < 16 || o.Cores > 32 {
		t.Errorf("OoO 2D pod %v, thesis 32c-2MB", o)
	}
	i := basePodIO(t)
	if i.LLCMB != 2 || i.Cores != 64 {
		t.Errorf("in-order 2D pod %v, thesis 64c-2MB", i)
	}
}

func TestPodAtFixedPod(t *testing.T) {
	base := basePodOoO(t)
	for dies := 2; dies <= 4; dies *= 2 {
		p := PodAt(base, node(), dies, FixedPod)
		if p.Cores != base.Cores || p.LLCMB != base.LLCMB {
			t.Fatalf("fixed-pod changed resources at %d dies: %v", dies, p)
		}
		if p.WireDelta >= 0 {
			t.Fatalf("fixed-pod folding should shorten wires, delta %v", p.WireDelta)
		}
	}
	// Deeper stacks shorten wires more.
	d2 := PodAt(base, node(), 2, FixedPod).WireDelta
	d4 := PodAt(base, node(), 4, FixedPod).WireDelta
	if d4 >= d2 {
		t.Fatalf("4-die delta %v not below 2-die delta %v", d4, d2)
	}
}

func TestPodAtFixedDistance(t *testing.T) {
	base := basePodOoO(t)
	p := PodAt(base, node(), 2, FixedDistance)
	if p.Cores != 2*base.Cores || p.LLCMB != 2*base.LLCMB {
		t.Fatalf("fixed-distance did not double resources: %v", p)
	}
	// Effective latency: base crossbar + ~1.5 cycles of arbitration,
	// NOT the 2D latency of the doubled port count.
	grown := noc.CrossbarLatency(p.Cores) + p.WireDelta
	want := noc.CrossbarLatency(base.Cores) + 1.5
	if math.Abs(grown-want) > 1e-9 {
		t.Fatalf("fixed-distance latency %v, want %v", grown, want)
	}
}

func TestPodAtSingleDieIdentity(t *testing.T) {
	base := basePodOoO(t)
	if p := PodAt(base, node(), 1, FixedPod); p != base {
		t.Fatalf("1-die pod differs from base: %v", p)
	}
}

func TestCompose3DValidation(t *testing.T) {
	if _, err := Compose3D(node(), basePodOoO(t), 0, FixedPod, ws); err == nil {
		t.Fatal("0 dies accepted")
	}
	if _, err := Compose3D(node(), basePodOoO(t), 5, FixedPod, ws); err == nil {
		t.Fatal("5 dies accepted")
	}
}

// The headline Chapter-6 result: 3D stacking raises performance density
// for both strategies and both core types.
func TestPDRisesWithDies(t *testing.T) {
	for _, base := range []core.Pod{basePodOoO(t), basePodIO(t)} {
		oneDie, err := Compose3D(node(), base, 1, FixedPod, ws)
		if err != nil {
			t.Fatal(err)
		}
		pd1 := oneDie.PD3D()
		for _, s := range []Strategy{FixedPod, FixedDistance} {
			c, err := Compose3D(node(), base, 2, s, ws)
			if err != nil {
				t.Fatal(err)
			}
			if pd := c.PD3D(); pd <= pd1 {
				t.Errorf("%v %v: 2-die PD %v not above 2D PD %v", base, s, pd, pd1)
			}
		}
	}
}

// Figure 6.7's crossover: at three dies, the bandwidth-constrained
// in-order design favours fixed-distance (bigger shared LLC uses the
// scarce channels better).
func TestInOrderThreeDieCrossover(t *testing.T) {
	base := basePodIO(t)
	res, err := CompareStrategies(node(), base, 3, ws)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Chip.Strategy != FixedDistance {
		t.Errorf("3-die in-order winner %v, thesis: fixed-distance", res[0].Chip.Strategy)
	}
}

// The two strategies stay within a few percent of each other everywhere
// the thesis compares them (its margins are <= ~2.5%).
func TestStrategiesClose(t *testing.T) {
	for _, tc := range []struct {
		base core.Pod
		dies int
	}{
		{basePodOoO(t), 2}, {basePodOoO(t), 4}, {basePodIO(t), 2},
	} {
		res, err := CompareStrategies(node(), tc.base, tc.dies, ws)
		if err != nil {
			t.Fatal(err)
		}
		if gap := res[0].PD/res[1].PD - 1; gap > 0.06 {
			t.Errorf("%v at %d dies: strategy gap %.1f%%, thesis <=2.5%%",
				tc.base, tc.dies, gap*100)
		}
	}
}

func TestBudgetsRespected(t *testing.T) {
	n := node()
	for _, base := range []core.Pod{basePodOoO(t), basePodIO(t)} {
		for dies := 1; dies <= 4; dies++ {
			for _, s := range []Strategy{FixedPod, FixedDistance} {
				c, err := Compose3D(n, base, dies, s, ws)
				if err != nil {
					t.Fatal(err)
				}
				if c.FootprintArea() > n.MaxDieAreaMM2 {
					t.Errorf("%v %v %dd: footprint %v over budget", base, s, dies, c.FootprintArea())
				}
				if c.Power() > n.TDPWatts {
					t.Errorf("%v %v %dd: power %v over 250W", base, s, dies, c.Power())
				}
				if c.MemChannels > tech.MaxMemoryInterfaces {
					t.Errorf("%v %v %dd: %d channels", base, s, dies, c.MemChannels)
				}
				if c.TotalSilicon() < c.LogicArea() {
					t.Errorf("silicon accounting: total %v < logic %v", c.TotalSilicon(), c.LogicArea())
				}
			}
		}
	}
}

// At one die, PD3D coincides with the 2D chip-level PD definition.
func TestPD3DReducesTo2D(t *testing.T) {
	base := basePodOoO(t)
	c, err := Compose3D(node(), base, 1, FixedPod, ws)
	if err != nil {
		t.Fatal(err)
	}
	silicon := c.LogicArea() + float64(c.MemChannels)*tech.MemIfaceAreaMM2 + tech.SoCMiscAreaMM2
	if got, want := c.PD3D(), c.IPC()/silicon; math.Abs(got-want) > 1e-12 {
		t.Fatalf("1-die PD3D %v != 2D PD %v", got, want)
	}
	if c.FootprintArea() != silicon {
		t.Fatalf("1-die footprint %v != silicon %v", c.FootprintArea(), silicon)
	}
}

func TestAggregates(t *testing.T) {
	c, err := Compose3D(node(), basePodOoO(t), 2, FixedDistance, ws)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cores() != c.Pods*c.Pod.Cores || c.LLCMB() != float64(c.Pods)*c.Pod.LLCMB {
		t.Fatal("aggregate counts inconsistent")
	}
	if c.IPC() <= 0 {
		t.Fatal("non-positive IPC")
	}
}

func TestStrategyString(t *testing.T) {
	if FixedPod.String() != "Fixed-Pod" || FixedDistance.String() != "Fixed-Distance" {
		t.Fatal("strategy names")
	}
}

// Fixed-distance pods demand fewer channels per core than fixed-pod
// replicas: the larger shared LLC filters traffic (Section 6.2).
func TestFixedDistanceFiltersTraffic(t *testing.T) {
	base := basePodIO(t)
	fp, err := Compose3D(node(), base, 3, FixedPod, ws)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := Compose3D(node(), base, 3, FixedDistance, ws)
	if err != nil {
		t.Fatal(err)
	}
	perCoreFP := float64(fp.MemChannels) / float64(fp.Cores())
	perCoreFD := float64(fd.MemChannels) / float64(fd.Cores())
	if perCoreFD >= perCoreFP {
		t.Fatalf("fixed-distance channel/core %v not below fixed-pod %v", perCoreFD, perCoreFP)
	}
}
