package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzParseText hardens the exposition parser, which decodes pages
// scraped from another process (soload -lint-metrics). No input may
// panic it, and it returns either families or an error naming a line
// of the page. The seed corpus is a registry page holding every kind —
// counter, gauge, histogram and labeled vectors — with escapes in HELP
// text and label values, plus a truncation of it and two malformed
// pages.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("soproc_fuzz_points_total", "points \\ handled\non two lines").Add(3)
	reg.Gauge("soproc_fuzz_in_flight_points", "points in flight").Set(-1.5)
	h := reg.Histogram("soproc_fuzz_latency_seconds", "latency", []float64{0.01, 1})
	h.Observe(0.5)
	h.Observe(5)
	reg.CounterVecFunc("soproc_fuzz_lane_admitted_total", "per-lane admits",
		[]string{"lane", "client"}, func(emit EmitFunc) {
			emit(5, "interactive", "a,b")
			emit(7, `we"ird\lane`, "new\nline")
		})
	reg.GaugeVecFunc("soproc_fuzz_peer_up", "peer health", []string{"peer"}, func(emit EmitFunc) {
		emit(math.Inf(1), "127.0.0.1:8080")
		emit(math.NaN(), "127.0.0.1:8081")
	})
	page := reg.Text()
	if _, err := ParseText(page); err != nil {
		f.Fatalf("seed page does not parse: %v", err)
	}
	f.Add(page)
	f.Add(page[:len(page)/2])
	f.Add("soproc_fuzz_undeclared 1\n")
	f.Add("# TYPE x counter\nx{a=\"unterminated} 1\n")

	f.Fuzz(func(t *testing.T, page string) {
		fams, err := ParseText(page)
		if err == nil {
			if fams == nil {
				t.Fatal("nil families and no error")
			}
			return
		}
		if fams != nil {
			t.Fatalf("families returned alongside error %v", err)
		}
		var line int
		if _, serr := fmt.Sscanf(err.Error(), "metrics: line %d:", &line); serr != nil {
			t.Fatalf("error names no line: %v", err)
		}
		if lines := strings.Count(page, "\n") + 1; line < 1 || line > lines {
			t.Fatalf("error names line %d of a %d-line page: %v", line, lines, err)
		}
	})
}
