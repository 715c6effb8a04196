package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fuzzLane and fuzzStats are the tagged snapshot behind the fuzz seed
// page: escapes in HELP text and label values, infinite and NaN
// values, and labeled families from a map and a slice.
type fuzzLane struct {
	Admitted int64 `metric:"soproc_fuzz_lane_admitted_total" help:"per-lane admits"`
}

type fuzzPeer struct {
	Addr string  `metric:"label"`
	Up   float64 `metric:"soproc_fuzz_peer_up" help:"peer health"`
}

type fuzzStats struct {
	Points   int64               `metric:"soproc_fuzz_points_total" help:"points \\ handled\non two lines"`
	InFlight float64             `metric:"soproc_fuzz_in_flight_points" help:"points in flight"`
	Lanes    map[string]fuzzLane `metric:"lane"`
	Peers    []fuzzPeer          `metric:"peer"`
}

// FuzzParseText hardens the exposition parser, which decodes pages
// scraped from another process (soload -lint-metrics). No input may
// panic it, and it returns either families or an error naming a line
// of the page. The seed corpus is a registry page holding every kind —
// counter, gauge, histogram and labeled families — with escapes in
// HELP text and label values, and a two-label family the registry does
// not render itself; plus a truncation of it and two malformed pages.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	RegisterStats(reg, func() fuzzStats {
		return fuzzStats{
			Points:   3,
			InFlight: -1.5,
			Lanes:    map[string]fuzzLane{"interactive": {5}, `we"ird\lane`: {7}},
			Peers:    []fuzzPeer{{"127.0.0.1:8080", math.Inf(1)}, {"127.0.0.1:8081", math.NaN()}},
		}
	})
	h := reg.Histogram("soproc_fuzz_latency_seconds", "latency", []float64{0.01, 1})
	h.Observe(0.5)
	h.Observe(5)
	page := reg.Text() + "# HELP soproc_fuzz_client_admitted_total per-client admits\n" +
		"# TYPE soproc_fuzz_client_admitted_total counter\n" +
		`soproc_fuzz_client_admitted_total{lane="bulk",client="a,b"} 5` + "\n" +
		`soproc_fuzz_client_admitted_total{lane="bulk",client="new\nline"} 7` + "\n"
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
