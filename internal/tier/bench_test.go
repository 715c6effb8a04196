package tier

import (
	"testing"

	"scaleout/internal/analytic"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// surrogateSink keeps the benchmarked estimates live.
var surrogateSink analytic.Estimate

// BenchmarkSurrogateScore measures what fast mode pays per structural
// point before deciding to escalate it: canonicalize the configuration,
// then score it with the analytic surrogate through the production spec
// builder. One iteration scores one point of a 16-core structural
// batch, the workload suite × LLC {2, 4, 8} MB at seed 2. CI requires
// it to stay under 100 µs per point at the default benchtime (a 1x run
// measures one-off set-up instead).
func BenchmarkSurrogateScore(b *testing.B) {
	var batch []sim.StructuralConfig
	for _, w := range workload.Suite() {
		for _, llc := range []float64{2, 4, 8} {
			batch = append(batch, sim.StructuralConfig{
				Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: llc, Seed: 2,
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc, err := batch[i%len(batch)].Canonical()
		if err != nil {
			b.Fatal(err)
		}
		surrogateSink = analytic.Surrogate(structuralSpec(cc))
	}
}
