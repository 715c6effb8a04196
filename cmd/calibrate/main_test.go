package main

import (
	"context"
	"math"
	"testing"

	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/tier"
	"scaleout/internal/workload"
)

// The summary's certification bound is the tiered evaluator's: a
// region at the bound answers from the surrogate, and one just above it
// escalates. The context is cancelled, so an escalated point
// stops at the engine instead of simulating.
func TestCertifiableMatchesTier(t *testing.T) {
	cfgs := []sim.Config{{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		maxRelErr float64
		served    bool
	}{{certifiable, true}, {math.Nextafter(certifiable, 1), false}} {
		ev := tier.New(&tier.Calibration{
			Granularity: 1,
			Regions:     []tier.Region{{Key: "sim/OoO", Samples: 1, MaxRelErr: c.maxRelErr}},
		})
		ev.Sims(ctx, cfgs)
		if served := ev.Stats().SurrogateServed == 1; served != c.served {
			t.Errorf("region with max rel err %v: surrogate-served %v, want %v", c.maxRelErr, served, c.served)
		}
	}
}
