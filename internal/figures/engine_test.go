package figures

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scaleout/internal/exp"
)

// renderAll concatenates every table's rendering into one string, the
// byte-for-byte artifact the determinism guarantee covers.
func renderAll(tables []Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// A parallel RunAll must produce byte-identical tables to a serial run:
// one generator at a time on a single-worker engine. This is the
// engine's central guarantee — concurrency and memoization are invisible
// in the output.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full harness twice")
	}
	// Serial baseline: sequential generators, one worker, fresh memo.
	serialCtx := exp.WithEngine(context.Background(), exp.New(1))
	var serial []Table
	for _, id := range IDs() {
		tab, err := RunContext(serialCtx, id)
		if err != nil {
			t.Fatalf("serial %s: %v", id, err)
		}
		serial = append(serial, tab)
	}
	// Parallel run: concurrent generators on the shared default engine —
	// the exact path `soproc -all` takes.
	parallel, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	s, p := renderAll(serial), renderAll(parallel)
	if s != p {
		t.Fatalf("parallel output differs from serial baseline:\nserial %d bytes, parallel %d bytes", len(s), len(p))
	}
	// The rendered suite is what `soproc -all` prints, byte for byte. A
	// change that moves any result must update this digest in the same
	// commit. It is pinned on amd64 only: elsewhere Go may fuse a
	// multiply and an add, which moves the last bits of a result.
	if runtime.GOARCH == "amd64" {
		const want = "5c49d52e19e8c020e1d71fd8b67906d8b31e697eace96f5831fe0435c1476a8a"
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(p))); got != want {
			t.Fatalf("rendered suite (%d bytes) has SHA-256 %s, pinned %s", len(p), got, want)
		}
	}
}

// Regenerating an experiment on one engine serves the repeat entirely
// from the memo: the simulation count does not grow.
func TestRunMemoizesAcrossRepeats(t *testing.T) {
	eng := exp.New(2)
	ctx := exp.WithEngine(context.Background(), eng)
	first, err := RunContext(ctx, "fig2.1")
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := eng.Stats().Misses
	if missesAfterFirst == 0 {
		t.Fatal("fig2.1 ran no simulations")
	}
	second, err := RunContext(ctx, "fig2.1")
	if err != nil {
		t.Fatal(err)
	}
	if misses := eng.Stats().Misses; misses != missesAfterFirst {
		t.Fatalf("repeat ran %d new simulations", misses-missesAfterFirst)
	}
	if first.String() != second.String() {
		t.Fatal("memoized rerun differs")
	}
}

// Figures that share sweep points must share simulations: power4.4's
// configurations are a subset of fig4.6's, so regenerating it on the
// same engine costs zero new simulator runs.
func TestCrossFigureDeduplication(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core pod simulations are slow")
	}
	eng := exp.New(4)
	ctx := exp.WithEngine(context.Background(), eng)
	if _, err := RunContext(ctx, "fig4.6"); err != nil {
		t.Fatal(err)
	}
	missesAfter46 := eng.Stats().Misses
	if _, err := RunContext(ctx, "power4.4"); err != nil {
		t.Fatal(err)
	}
	if misses := eng.Stats().Misses; misses != missesAfter46 {
		t.Fatalf("power4.4 ran %d simulations despite sharing every point with fig4.6",
			misses-missesAfter46)
	}
}
