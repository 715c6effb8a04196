package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes its own executable with -child first, and
// those child invocations run the benchmark's main instead of tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the harness must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced in two processes and
// traced in one, and checks that every metric BENCHMARK.json names appears
// with its unit, that the correctness gate reports no failure, and
// that the traced run writes a loadable span file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(sp.PerLayer), len(perLayer))
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w.Name, traced
			t.Run(map[bool]string{false: w, true: w + "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				o := options{workload: w, seed: 7, seconds: 2, trace: traced,
					work: filepath.Join(dir, "work"), traceOut: filepath.Join(dir, "trace.json")}
				res, diag, err := orchestrate(o, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", res.Correct, res.Attempted, res.Failed)
				}
				if diag["host.spin_ms"] <= 0 {
					t.Errorf("host.spin_ms = %v", diag["host.spin_ms"])
				}
				want := sp.EndToEnd
				if traced {
					want = sp.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if !traced {
					return
				}
				data, err := os.ReadFile(o.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tr); err != nil {
					t.Fatalf("span file: %v", err)
				}
				if len(tr.TraceEvents) == 0 {
					t.Error("span file holds no events")
				}
			})
		}
	}
}
