// Command soload drives a running soprocd (or a coordinator fronting a
// cluster) with a reproducible sweep-point workload and reports the
// latency distribution it observed — the load generator behind the
// observability CI stage and EXPERIMENTS.md's serving numbers.
//
// Usage:
//
//	soload -target http://127.0.0.1:8080 -rate 50 -duration 10s
//	                             fire the figure-suite sweep points at
//	                             50 requests/sec for 10 seconds
//	soload -phases 20x5s,100x5s  two phases: 20 req/s then 100 req/s
//	soload -points pts.json      replay wire-form configurations (a JSON
//	                             array of sim.WireConfig objects) instead
//	                             of the figure suite
//	soload -batch 16             points per /v1/sweep request (default 1)
//	soload -tier fast            request surrogate service for certified
//	                             points (daemon needs -calibration)
//	soload -csv timeline.csv     per-second timeline: sent, completed,
//	                             shed, errors, p50/p95/p99/max ms
//	soload -lint-metrics http://127.0.0.1:8080/metricsz
//	                             scrape a /metricsz page, validate the
//	                             Prometheus text format, and lint metric
//	                             names instead of generating load
//
// The generator is open loop: requests fire on the configured schedule
// whether or not earlier ones have returned, so a saturated daemon
// sheds (429) rather than silently slowing the offered rate. Shed
// responses count separately from errors — against an admission
// controller they are the expected overload behaviour — and the exit
// status is 0 as long as at least one request completed.
//
// Workload points replay deterministically: the figure suite is
// deduplicated by canonical fingerprint and sorted by memo key, then
// requests walk that sequence round-robin. Repeats are intentional —
// they exercise the daemon's memo exactly the way overlapping client
// sweeps do.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/metrics"
	"scaleout/internal/serve"
	"scaleout/internal/sim"
)

func main() {
	target := flag.String("target", "http://127.0.0.1:8080", "soprocd base URL")
	rate := flag.Float64("rate", 20, "request rate in requests/sec (single phase; see -phases)")
	duration := flag.Duration("duration", 5*time.Second, "phase length (single phase; see -phases)")
	phasesArg := flag.String("phases", "", "comma-separated RATExDUR phases, e.g. 20x5s,100x10s (overrides -rate/-duration)")
	pointsPath := flag.String("points", "", "JSON array of wire-form configurations to replay (default: the figure suite)")
	batch := flag.Int("batch", 1, "points per /v1/sweep request")
	tierName := flag.String("tier", "", "sweep tier to request: exact (default) or fast")
	clientID := flag.String("client", "soload", "X-Soproc-Client identity for admission accounting")
	timeout := flag.Duration("request-timeout", time.Minute, "per-request HTTP timeout")
	csvPath := flag.String("csv", "", "write the per-second timeline as CSV to this path")
	lintURL := flag.String("lint-metrics", "", "scrape this /metricsz URL, validate format and metric names, and exit (no load)")
	flag.Parse()

	if *lintURL != "" {
		if err := lintMetrics(*lintURL); err != nil {
			fail(err)
		}
		return
	}

	phases, err := parsePhases(*phasesArg, *rate, *duration)
	if err != nil {
		fail(err)
	}
	if *batch < 1 || *batch > serve.MaxSweepPoints {
		fail(fmt.Errorf("-batch must be in [1, %d], got %d", serve.MaxSweepPoints, *batch))
	}

	points, err := loadPoints(*pointsPath)
	if err != nil {
		fail(err)
	}
	fmt.Printf("soload: %d distinct points, %d phase(s), target %s\n", len(points), len(phases), *target)

	run := newRun(*target, *tierName, *clientID, points, *batch, *timeout)
	for i, ph := range phases {
		run.runPhase(i, ph)
	}
	run.wg.Wait()

	completed := run.report(os.Stdout, phases)
	if *csvPath != "" {
		if err := run.writeCSV(*csvPath, phases); err != nil {
			fail(err)
		}
	}
	if completed == 0 {
		fail(fmt.Errorf("no request completed against %s", *target))
	}
}

// phase is one constant-rate segment of the schedule.
type phase struct {
	rate float64
	dur  time.Duration
}

// parsePhases resolves -phases (RATExDUR, comma-separated) or falls
// back to the single -rate/-duration phase.
func parsePhases(arg string, rate float64, dur time.Duration) ([]phase, error) {
	if arg == "" {
		if rate <= 0 || dur <= 0 {
			return nil, fmt.Errorf("-rate and -duration must be positive")
		}
		return []phase{{rate: rate, dur: dur}}, nil
	}
	var phases []phase
	for _, spec := range strings.Split(arg, ",") {
		r, d, ok := strings.Cut(spec, "x")
		if !ok {
			return nil, fmt.Errorf("bad phase %q (want RATExDUR, e.g. 50x10s)", spec)
		}
		rv, err := strconv.ParseFloat(r, 64)
		if err != nil || rv <= 0 {
			return nil, fmt.Errorf("bad phase rate %q (want a positive number)", r)
		}
		dv, err := time.ParseDuration(d)
		if err != nil || dv <= 0 {
			return nil, fmt.Errorf("bad phase duration %q: %v", d, err)
		}
		phases = append(phases, phase{rate: rv, dur: dv})
	}
	return phases, nil
}

// loadPoints builds the replay sequence: the wire-form configurations
// in path (a JSON array), or — with no -points — every distinct
// configuration the figure suite would simulate, collected by running
// the unmodified generators over a tier that records instead of
// simulating, then sorted by memo key so every soload run replays the
// identical sequence.
func loadPoints(path string) ([]serve.SweepPoint, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var raws []json.RawMessage
		if err := json.Unmarshal(data, &raws); err != nil {
			return nil, fmt.Errorf("%s: want a JSON array of wire configurations: %w", path, err)
		}
		points := make([]serve.SweepPoint, 0, len(raws))
		for i, raw := range raws {
			if _, err := sim.UnmarshalWire(raw); err != nil {
				return nil, fmt.Errorf("%s: point %d: %w", path, i, err)
			}
			points = append(points, serve.SweepPoint{Config: raw})
		}
		if len(points) == 0 {
			return nil, fmt.Errorf("%s: no points", path)
		}
		return points, nil
	}
	return suitePoints()
}

// pointCollector implements exp.Tier by recording every configuration
// batch and answering with zero-valued results: installing it under the
// figure generators enumerates the suite's simulator points without
// running a single simulation.
type pointCollector struct {
	mu      sync.Mutex
	sims    map[string]sim.Config
	structs map[string]sim.StructuralConfig
}

func (c *pointCollector) Sims(ctx context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	c.mu.Lock()
	for _, cfg := range cfgs {
		c.sims[cfg.Key()] = cfg
	}
	c.mu.Unlock()
	return make([]sim.Result, len(cfgs)), nil
}

func (c *pointCollector) Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	c.mu.Lock()
	for _, cfg := range cfgs {
		c.structs[cfg.Key()] = cfg
	}
	c.mu.Unlock()
	return make([]sim.StructuralResult, len(cfgs)), nil
}

func suitePoints() ([]serve.SweepPoint, error) {
	col := &pointCollector{
		sims:    make(map[string]sim.Config),
		structs: make(map[string]sim.StructuralConfig),
	}
	ctx := exp.WithTier(exp.WithEngine(context.Background(), exp.New(0)), col)
	if _, err := figures.RunAllContext(ctx); err != nil {
		return nil, fmt.Errorf("enumerating the figure suite: %w", err)
	}
	keys := make([]string, 0, len(col.sims)+len(col.structs))
	for k := range col.sims {
		keys = append(keys, k)
	}
	for k := range col.structs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	points := make([]serve.SweepPoint, 0, len(keys))
	for _, k := range keys {
		var (
			raw []byte
			err error
		)
		if cfg, ok := col.sims[k]; ok {
			raw, err = cfg.MarshalWire()
		} else {
			raw, err = col.structs[k].MarshalWire()
		}
		if err != nil {
			return nil, err
		}
		points = append(points, serve.SweepPoint{Config: raw})
	}
	return points, nil
}

// shot is one request's record: which phase fired it, the whole second
// within that phase it fired in, and how it ended.
type shot struct {
	phase   int
	bucket  int
	outcome byte // 'c' completed, 's' shed (429), 'e' error
	ms      float64
}

type run struct {
	target   string
	tierName string
	clientID string
	points   []serve.SweepPoint
	batch    int
	client   *http.Client

	cursor int // next replay index, advanced at fire time

	mu    sync.Mutex
	shots []shot
	wg    sync.WaitGroup
}

func newRun(target, tierName, clientID string, points []serve.SweepPoint, batch int, timeout time.Duration) *run {
	return &run{
		target:   strings.TrimRight(target, "/"),
		tierName: tierName,
		clientID: clientID,
		points:   points,
		batch:    batch,
		client:   &http.Client{Timeout: timeout},
	}
}

// runPhase fires phase ph's schedule and returns when the last request
// has been launched (not completed — the generator is open loop;
// run.wg tracks completions).
func (r *run) runPhase(idx int, ph phase) {
	interval := time.Duration(float64(time.Second) / ph.rate)
	start := time.Now()
	end := start.Add(ph.dur)
	next := start
	for next.Before(end) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		pts := r.nextBatch()
		bucket := int(next.Sub(start) / time.Second)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			outcome, ms := r.fire(pts)
			r.mu.Lock()
			r.shots = append(r.shots, shot{phase: idx, bucket: bucket, outcome: outcome, ms: ms})
			r.mu.Unlock()
		}()
		next = next.Add(interval)
	}
}

// nextBatch hands out the next batch-sized window of the replay
// sequence, wrapping round-robin.
func (r *run) nextBatch() []serve.SweepPoint {
	pts := make([]serve.SweepPoint, 0, r.batch)
	for i := 0; i < r.batch; i++ {
		pts = append(pts, r.points[r.cursor%len(r.points)])
		r.cursor++
	}
	return pts
}

// fire POSTs one /v1/sweep request and classifies the outcome. Latency
// covers send through the fully read response body.
func (r *run) fire(pts []serve.SweepPoint) (outcome byte, ms float64) {
	body, err := json.Marshal(serve.SweepRequest{Tier: r.tierName, Points: pts})
	if err != nil {
		return 'e', 0
	}
	req, err := http.NewRequest(http.MethodPost, r.target+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return 'e', 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(admit.ClientHeader, r.clientID)
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return 'e', 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	elapsed := time.Since(start)
	switch {
	case resp.StatusCode == http.StatusOK:
		return 'c', float64(elapsed) / float64(time.Millisecond)
	case resp.StatusCode == http.StatusTooManyRequests:
		return 's', 0
	default:
		return 'e', 0
	}
}

// agg is one timeline row's accumulator.
type agg struct {
	sent, completed, shed, errors int
	latencies                     []float64
}

func (a *agg) add(s shot) {
	a.sent++
	switch s.outcome {
	case 'c':
		a.completed++
		a.latencies = append(a.latencies, s.ms)
	case 's':
		a.shed++
	default:
		a.errors++
	}
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted, or 0 when empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// report prints one summary line per phase and returns the total
// completed-request count.
func (r *run) report(w io.Writer, phases []phase) int {
	total := 0
	for i, ph := range phases {
		var a agg
		for _, s := range r.shots {
			if s.phase == i {
				a.add(s)
			}
		}
		sort.Float64s(a.latencies)
		fmt.Fprintf(w, "soload: phase %d (%gx%s): sent %d, completed %d, shed %d, errors %d, p50 %.1fms p95 %.1fms p99 %.1fms max %.1fms\n",
			i, ph.rate, ph.dur, a.sent, a.completed, a.shed, a.errors,
			percentile(a.latencies, 0.50), percentile(a.latencies, 0.95),
			percentile(a.latencies, 0.99), percentile(a.latencies, 1.0))
		total += a.completed
	}
	return total
}

// writeCSV writes the per-second timeline: one row per (phase, whole
// second) with counts and the latency distribution of requests fired in
// that second.
func (r *run) writeCSV(path string, phases []phase) error {
	rows := make(map[[2]int]*agg)
	for _, s := range r.shots {
		key := [2]int{s.phase, s.bucket}
		a := rows[key]
		if a == nil {
			a = &agg{}
			rows[key] = a
		}
		a.add(s)
	}
	keys := make([][2]int, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	cw.Write([]string{"phase", "interval_start_s", "sent", "completed", "shed", "errors", "p50_ms", "p95_ms", "p99_ms", "max_ms"})
	for _, k := range keys {
		a := rows[k]
		sort.Float64s(a.latencies)
		cw.Write([]string{
			strconv.Itoa(k[0]),
			strconv.Itoa(k[1]),
			strconv.Itoa(a.sent),
			strconv.Itoa(a.completed),
			strconv.Itoa(a.shed),
			strconv.Itoa(a.errors),
			fmt.Sprintf("%.3f", percentile(a.latencies, 0.50)),
			fmt.Sprintf("%.3f", percentile(a.latencies, 0.95)),
			fmt.Sprintf("%.3f", percentile(a.latencies, 0.99)),
			fmt.Sprintf("%.3f", percentile(a.latencies, 1.0)),
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lintMetrics scrapes url and holds the page to the Prometheus text
// format and the repo's naming contract (metrics.Lint). CI points this
// at each replica and the coordinator mid-run.
func lintMetrics(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		return fmt.Errorf("%s: Content-Type %q, want %q", url, ct, metrics.ContentType)
	}
	families, err := metrics.Lint(string(body))
	if err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	samples := 0
	for _, fam := range families {
		samples += len(fam.Samples)
	}
	fmt.Printf("soload: %s: %d families, %d samples, format ok\n", url, len(families), samples)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "soload:", err)
	os.Exit(1)
}
