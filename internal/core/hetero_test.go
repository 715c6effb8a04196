package core

import (
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
)

func heteroPods() (Pod, Pod) {
	return Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: noc.Crossbar},
		Pod{Core: tech.InOrder, Cores: 32, LLCMB: 2, Net: noc.Crossbar}
}

func TestEnumerateHetero(t *testing.T) {
	a, b := heteroPods()
	mixes, err := EnumerateHetero(tech.N40(), a, b, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) < 4 {
		t.Fatalf("only %d feasible mixes", len(mixes))
	}
	var sawHomogA, sawHomogB, sawMixed bool
	for _, c := range mixes {
		if c.DieArea() > tech.N40().MaxDieAreaMM2 || c.Power() > tech.N40().TDPWatts {
			t.Errorf("mix %d/%d over budget: %vmm2 %vW", c.CountA, c.CountB, c.DieArea(), c.Power())
		}
		if c.MemChannels < 1 || c.MemChannels > tech.MaxMemoryInterfaces {
			t.Errorf("mix %d/%d: %d channels", c.CountA, c.CountB, c.MemChannels)
		}
		switch {
		case c.CountA > 0 && c.CountB > 0:
			sawMixed = true
		case c.CountA > 0:
			sawHomogA = true
		default:
			sawHomogB = true
		}
	}
	if !sawHomogA || !sawHomogB || !sawMixed {
		t.Fatalf("enumeration missing endpoints or mixes: A=%v B=%v mixed=%v",
			sawHomogA, sawHomogB, sawMixed)
	}
}

// The homogeneous endpoints must agree with Compose.
func TestHeteroEndpointsMatchCompose(t *testing.T) {
	a, b := heteroPods()
	mixes, err := EnumerateHetero(tech.N40(), a, b, ws)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := Compose(tech.N40(), b, ws)
	if err != nil {
		t.Fatal(err)
	}
	bestB := 0
	for _, c := range mixes {
		if c.CountA == 0 && c.CountB > bestB {
			bestB = c.CountB
		}
	}
	if bestB != composed.Pods {
		t.Fatalf("hetero endpoint has %d in-order pods, Compose gives %d", bestB, composed.Pods)
	}
}

func TestParetoHetero(t *testing.T) {
	a, b := heteroPods()
	mixes, err := EnumerateHetero(tech.N40(), a, b, ws)
	if err != nil {
		t.Fatal(err)
	}
	frontier := ParetoHetero(mixes)
	if len(frontier) == 0 || len(frontier) > len(mixes) {
		t.Fatalf("frontier size %d of %d", len(frontier), len(mixes))
	}
	// The all-in-order max-throughput mix and the max-OoO mix are
	// both non-dominated by construction.
	var maxTotal, maxA HeteroChip
	for _, c := range mixes {
		if c.IPC() > maxTotal.IPC() {
			maxTotal = c
		}
		if float64(c.CountA)*c.perfA.IPC > float64(maxA.CountA)*maxA.perfA.IPC {
			maxA = c
		}
	}
	found := func(want HeteroChip) bool {
		for _, c := range frontier {
			if c.CountA == want.CountA && c.CountB == want.CountB {
				return true
			}
		}
		return false
	}
	if !found(maxTotal) || !found(maxA) {
		t.Fatalf("frontier missing extremes (maxTotal %d/%d, maxA %d/%d)",
			maxTotal.CountA, maxTotal.CountB, maxA.CountA, maxA.CountB)
	}
}

func TestEnumerateHeteroInfeasible(t *testing.T) {
	huge := Pod{Core: tech.Conventional, Cores: 64, LLCMB: 64, Net: noc.Crossbar}
	if _, err := EnumerateHetero(tech.N40(), huge, huge, ws); err == nil {
		t.Fatal("infeasible pods accepted")
	}
}
