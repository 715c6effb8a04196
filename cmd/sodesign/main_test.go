package main

import (
	"testing"

	"scaleout/internal/core"
	"scaleout/internal/noc"
	"scaleout/internal/tco"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// The -tco flow prices the composed chip at its suite-mean IPC, the mean
// of its per-workload IPC, with the channels Compose provisioned for the
// pod's own interconnect.
func TestTCOSpecEvaluated(t *testing.T) {
	ws := workload.Suite()
	for _, net := range []noc.Kind{noc.Crossbar, noc.Mesh} {
		c, err := core.Compose(tech.N40(), core.Pod{Core: tech.OoO, Cores: 16, LLCMB: 4, Net: net}, ws)
		if err != nil {
			t.Fatal(err)
		}
		spec := tcoSpec(c, ws)
		sum := 0.0
		for i := range ws {
			sum += spec.WorkloadIPC(&ws[i])
		}
		if want := sum / float64(len(ws)); spec.IPC() != want || want <= 0 {
			t.Errorf("%v pods: spec IPC %v, suite mean %v", net, spec.IPC(), want)
		}
		if spec.MemChannels != c.MemChannels {
			t.Errorf("%v pods: spec has %d channels, the composed chip %d", net, spec.MemChannels, c.MemChannels)
		}
		dc, err := tco.Compose(tco.NewParams(), spec, 64)
		if err != nil {
			t.Fatal(err)
		}
		if dc.PerfPerTCO() <= 0 || dc.PerfPerWatt() <= 0 {
			t.Errorf("%v pods: perf/TCO %v, perf/Watt %v", net, dc.PerfPerTCO(), dc.PerfPerWatt())
		}
	}
}
