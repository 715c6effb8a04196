// Command calibrate validates the calibrated models and, with -out,
// runs the tiered-evaluation error-bounding harness.
//
// Usage:
//
//	calibrate                        print the model-vs-target validation
//	                                 tables (analytic catalog, simulator
//	                                 cross-checks) on the parallel engine
//	calibrate -out calibration.json  measure the analytic surrogate's
//	                                 error against both simulators over a
//	                                 grid and the figure suite, and write
//	                                 the per-region error table the tiered
//	                                 evaluator loads (internal/tier,
//	                                 soproc -calibration, soprocd
//	                                 -calibration)
//	calibrate -out c.json -store     ... running on the .sostore/ result
//	                                 store (-store-dir relocates it):
//	                                 stored points are not re-simulated,
//	                                 and every simulated point is written
//	                                 through, so a later soproc -all -store
//	                                 serves the whole suite from disk
//	calibrate -out c.json -cores 16 -llc 4 -nets crossbar -figures=false
//	                                 small grid, figure suite not sampled
//	calibrate -regions 2             coarser error regions (1 = kind/core,
//	                                 2 = +net, 3 = +cores/LLC buckets)
//
// The harness grid is workloads x -cores x -llc x -nets on both the
// statistical and the structural simulator; -figures (default true)
// additionally replays the full figure suite, so every figure point
// contributes an error sample. The summary lists each region's samples
// and errors, then how many regions of each simulator kind certify —
// their maximum relative error is at most 0.5 — and so may answer
// from the surrogate in fast tier mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"scaleout/internal/figures"
	"scaleout/internal/noc"
	"scaleout/internal/store"
	"scaleout/internal/tier"
)

func main() {
	out := flag.String("out", "", "write calibration JSON here and skip the validation tables")
	regions := flag.Int("regions", tier.DefaultGranularity, "error-region granularity: 1 = kind/core, 2 = +net, 3 = +cores/LLC buckets")
	coresList := flag.String("cores", "16,32,64", "comma-separated core counts for the calibration grid (with -out)")
	llcList := flag.String("llc", "2,4,8", "comma-separated LLC sizes in MB for the calibration grid (with -out)")
	netsList := flag.String("nets", "crossbar,mesh", "comma-separated interconnects for the calibration grid (with -out)")
	withFigures := flag.Bool("figures", true, "sample the full figure suite too (with -out)")
	parallel := flag.Int("parallel", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	useStore := flag.Bool("store", false, "calibrate on the persistent result store in -store-dir: stored points are not re-simulated, and simulated points are written through for later -store runs (with -out)")
	storeDir := flag.String("store-dir", store.DefaultDir, "persistent result store directory (with -store)")
	flag.Parse()

	if *out != "" {
		if err := runHarness(*out, *regions, *coresList, *llcList, *netsList, *withFigures, *parallel, *useStore, *storeDir); err != nil {
			fail(err)
		}
		return
	}
	if err := runChecks(*parallel); err != nil {
		fail(err)
	}
}

// runHarness is the error-bounding calibration: grid + optional figure
// suite through tier.Calibrate, summary on stdout, JSON to out.
func runHarness(out string, regions int, coresList, llcList, netsList string, withFigures bool, parallel int, useStore bool, storeDir string) error {
	cores, err := parseInts(coresList)
	if err != nil {
		return fmt.Errorf("-cores: %w", err)
	}
	llc, err := parseFloats(llcList)
	if err != nil {
		return fmt.Errorf("-llc: %w", err)
	}
	nets, err := parseNets(netsList)
	if err != nil {
		return fmt.Errorf("-nets: %w", err)
	}
	opts := tier.Options{
		Cores:       cores,
		LLCMB:       llc,
		Nets:        nets,
		Granularity: regions,
		Workers:     parallel,
	}
	if useStore {
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		opts.Store = st
	}
	if withFigures {
		opts.Suites = func(ctx context.Context) error {
			_, err := figures.RunAllContext(ctx)
			return err
		}
	}
	cal, err := tier.Calibrate(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := cal.Save(out); err != nil {
		return err
	}
	fmt.Printf("calibrate: %d regions -> %s\n", len(cal.Regions), out)
	regionCount := map[string]int{}
	certified := map[string]int{}
	for _, r := range cal.Regions {
		fmt.Printf("  %-40s samples %4d  max %6.3f  mean %6.3f\n",
			r.Key, r.Samples, r.MaxRelErr, r.MeanRelErr)
		kind, _, _ := strings.Cut(r.Key, "/")
		regionCount[kind]++
		if r.Samples > 0 && r.MaxRelErr <= certifiable {
			certified[kind]++
		}
	}
	for _, kind := range []string{"sim", "structural"} {
		fmt.Printf("calibrate: %s: %d of %d regions certify (max rel err <= %g)\n",
			kind, certified[kind], regionCount[kind], certifiable)
	}
	return nil
}

// certifiable is the tiered evaluator's certification bound: a region
// whose worst observed relative error exceeds it never answers from
// the surrogate (internal/tier; TestCertifiableMatchesTier holds the
// two together).
const certifiable = 0.5

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseNets(s string) ([]noc.Kind, error) {
	var out []noc.Kind
	for _, f := range strings.Split(s, ",") {
		k, err := noc.ParseKind(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}
