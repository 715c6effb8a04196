package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/sim"
	"scaleout/internal/store"
)

// suitePoint is one distinct simulator point of the figure suite.
type suitePoint struct {
	key   string
	point interface {
		Key() string
		RoutePayload() any
	}
	wire []byte // sim.WireConfig JSON, the /v1/sweep complete form
}

// collector is an exp.Tier that records every simulator configuration
// the figure generators declare and answers with zero results, so one
// RunAllContext enumerates the suite without simulating anything.
type collector struct {
	mu  sync.Mutex
	pts map[string]suitePoint
	err error
}

func (c *collector) add(key string, p suitePoint, wire func() ([]byte, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pts[key]; ok {
		return
	}
	raw, err := wire()
	if err != nil && c.err == nil {
		c.err = err
	}
	p.key, p.wire = key, raw
	c.pts[key] = p
}

func (c *collector) Sims(_ context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	for _, cfg := range cfgs {
		c.add(cfg.Key(), suitePoint{point: exp.SimPoint{Config: cfg}}, cfg.MarshalWire)
	}
	return make([]sim.Result, len(cfgs)), nil
}

func (c *collector) Structurals(_ context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	for _, cfg := range cfgs {
		c.add(cfg.Key(), suitePoint{point: exp.StructuralPoint{Config: cfg}}, cfg.MarshalWire)
	}
	return make([]sim.StructuralResult, len(cfgs)), nil
}

// suitePoints enumerates the figure suite's distinct simulator points,
// sorted by memo key.
func suitePoints() ([]suitePoint, error) {
	col := &collector{pts: map[string]suitePoint{}}
	ctx := exp.WithTier(exp.WithEngine(context.Background(), exp.New(0)), col)
	if _, err := figures.RunAllContext(ctx); err != nil {
		return nil, fmt.Errorf("enumerating the figure suite: %w", err)
	}
	if col.err != nil {
		return nil, col.err
	}
	out := make([]suitePoint, 0, len(col.pts))
	for _, p := range col.pts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// identityCost times Key() and RoutePayload() per call over pts, as the
// median of five rounds, in microseconds.
func identityCost(pts []suitePoint) (keyUS, payloadUS float64) {
	var keys, payloads []float64
	var sinkK int
	var sinkP any
	for round := 0; round < 5; round++ {
		start := time.Now()
		for _, p := range pts {
			sinkK += len(p.point.Key())
		}
		keys = append(keys, us(time.Since(start))/float64(len(pts)))
		start = time.Now()
		for _, p := range pts {
			sinkP = p.point.RoutePayload()
		}
		payloads = append(payloads, us(time.Since(start))/float64(len(pts)))
	}
	_, _ = sinkK, sinkP
	return median(keys), median(payloads)
}

// suite is suite_cold (every pass on an empty store) or suite_warm
// (every pass re-opens the populated store): one pass is one
// `soproc -all -store` run.
type suite struct {
	o      options
	warm   bool
	points []suitePoint
	digest [32]byte
	logDir string // the populated store (suite_warm)
}

// passStats is what one pass measured.
type passStats struct {
	dur    time.Duration
	digest [32]byte
	eng    exp.Stats
	st     store.Stats
}

// pass runs one `soproc -all -store` regeneration: a fresh engine,
// store.Open on dir, every figure, rendered exactly as the CLI prints
// it and hashed. A non-nil pt traces the pass.
func (s *suite) pass(dir string, pt *passTrace) (passStats, error) {
	var p passStats
	start := time.Now()
	var rec *recorder
	var passID uint64
	var t0 time.Duration
	if pt != nil {
		rec = pt.rec
		passID, t0 = rec.newID(), rec.now()
		pt.run = rec.newID()
	}
	mark := func(name string, from time.Duration, id uint64) time.Duration {
		now := rec.now()
		rec.add(span{Name: name, Track: "pass", ID: id, Parent: passID, Op: pt.op, Start: from, End: now})
		return now
	}

	eng := exp.New(0)
	st, err := store.Open(dir)
	if err != nil {
		return p, err
	}
	ctx := exp.WithEngine(context.Background(), eng)
	t := t0
	if pt != nil {
		t = mark("store.open", t, 0)
		eng.SetStore(timedStore{st: st, pt: pt})
		eng.SetDecisionHook(pt.decisionHook)
		ctx = exp.WithTier(ctx, timingTier{pt: pt})
	} else {
		eng.SetStore(st)
	}
	tables, err := figures.RunAllContext(ctx)
	if err != nil {
		st.Close()
		return p, err
	}
	if pt != nil {
		t = mark("figures.run", t, pt.run)
	}
	var out bytes.Buffer
	for _, tb := range tables {
		out.WriteString(tb.String())
		out.WriteByte('\n')
	}
	p.digest = sha256.Sum256(out.Bytes())
	if pt != nil {
		t = mark("figures.render", t, 0)
	}
	p.eng, p.st = eng.Stats(), st.Stats()
	if err := st.Close(); err != nil {
		return p, err
	}
	p.dur = time.Since(start)
	if pt != nil {
		mark("store.close", t, 0)
		rec.add(span{Name: "suite.pass", Track: "suite", ID: passID, Op: pt.op, Start: t0, End: rec.now()})
	}
	return p, nil
}

// check applies the correctness gate to one pass: its tables hash to
// the set-up pass's digest and the exact-repeat counts hold.
func (s *suite) check(p passStats) error {
	if p.digest != s.digest {
		return fmt.Errorf("rendered tables differ from the set-up pass")
	}
	n := int64(len(s.points))
	if s.warm && (p.eng.Misses != 0 || p.eng.StoreHits != n) {
		return fmt.Errorf("warm pass: %d simulated, %d store hits; want 0 and %d", p.eng.Misses, p.eng.StoreHits, n)
	}
	if !s.warm && (p.eng.Misses != n || p.eng.StoreHits != 0) {
		return fmt.Errorf("cold pass: %d simulated, %d store hits; want %d and 0", p.eng.Misses, p.eng.StoreHits, n)
	}
	return nil
}

// passDir returns the store directory for pass i: a fresh empty one
// for suite_cold, the populated log for suite_warm.
func (s *suite) passDir(i int) string {
	if s.warm {
		return s.logDir
	}
	return filepath.Join(s.o.work, "cold-"+strconv.Itoa(i))
}

func (s *suite) setup() error {
	pts, err := suitePoints()
	if err != nil {
		return err
	}
	s.points = pts
	// The first pass is set-up: it fills process-wide state (machine
	// pool, LLC prefill images, heap) and yields the reference digest.
	// suite_warm's first pass populates the store; a warm pass follows
	// so the measured passes start from a steady state.
	dir := filepath.Join(s.o.work, "cold-setup")
	if s.warm {
		s.logDir = filepath.Join(s.o.work, "store")
		dir = s.logDir
	}
	p, err := s.pass(dir, nil)
	if err != nil {
		return err
	}
	s.digest = p.digest
	if n := int64(len(s.points)); p.eng.Misses != n {
		return fmt.Errorf("set-up pass simulated %d points, suite has %d", p.eng.Misses, n)
	}
	if !s.warm {
		return os.RemoveAll(dir)
	}
	if p, err = s.pass(dir, nil); err != nil {
		return err
	}
	return s.check(p)
}

func (s *suite) close() {}

func (s *suite) measure() (*result, error) {
	res := &result{Correct: true}
	var rec *recorder
	if s.o.trace {
		rec = newRecorder()
	}
	var plain phase      // untraced passes
	var traced []float64 // traced pass latencies, ms
	var tracedStats []passStats
	var mem0, mem1 runtime.MemStats
	var allocMB, gcs float64
	start := time.Now()
	deadline := start.Add(time.Duration(s.o.seconds * float64(time.Second)))
	// A traced run needs one untraced and one traced pass at least.
	for i := 0; time.Now().Before(deadline) || (s.o.trace && i < 2); i++ {
		// A traced run alternates untraced and traced passes, so the
		// tracing overhead is measured under the same host drift.
		var pt *passTrace
		if s.o.trace && i%2 == 1 {
			pt = &passTrace{rec: rec, op: i}
		} else if s.o.trace {
			runtime.ReadMemStats(&mem0)
		}
		dir := s.passDir(i)
		p, err := s.pass(dir, pt)
		if pt == nil && s.o.trace {
			runtime.ReadMemStats(&mem1)
			allocMB += float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
			gcs += float64(mem1.NumGC - mem0.NumGC)
		}
		if !s.warm {
			os.RemoveAll(dir)
		}
		res.Attempted++
		if err == nil {
			err = s.check(p)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "sobench: pass %d: %v\n", i, err)
			continue
		}
		if pt != nil {
			traced = append(traced, ms(p.dur))
			tracedStats = append(tracedStats, p)
		} else {
			plain.add(p.dur, time.Since(start))
		}
	}
	plain.wall = time.Since(start)
	if res.Failed > 0 {
		res.Correct = false
	}
	if !s.o.trace {
		res.Ops = summarize(&plain, &plain, float64(len(s.points)))
		return res, nil
	}

	layers(res)
	spans := rec.since(0)
	s.suiteLayers(res, spans, tracedStats)
	res.set("trace.overhead_pct", 100*(ratio(median(traced), median(plain.lat))-1), "%")
	res.set("gen.p99_ms", percentile(plain.lat, 0.99), "ms")
	res.set("go.alloc_mb_per_op", ratio(allocMB, float64(len(plain.lat))), "MB/op")
	res.set("go.gc_per_op", ratio(gcs, float64(len(plain.lat))), "gc/op")
	return res, writeTrace(s.o.traceOut, spans)
}

// suiteLayers sets the per-layer metrics a suite pass moves, from the
// traced passes' spans and counters.
func (s *suite) suiteLayers(res *result, spans []span, passes []passStats) {
	np := float64(len(passes))
	if np == 0 {
		return
	}
	byName := map[string][]span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	durs := func(name string, unit time.Duration, keep func(span) bool) []float64 {
		var out []float64
		for _, sp := range byName[name] {
			if keep == nil || keep(sp) {
				out = append(out, float64(sp.dur())/float64(unit))
			}
		}
		return out
	}
	isKind := func(k string) func(span) bool { return func(sp span) bool { return sp.Kind == k } }

	computes := byName["sim.compute"]
	var busy time.Duration
	var cycles int64
	busyByOp := map[int]time.Duration{}
	for _, sp := range computes {
		busy += sp.dur()
		cycles += sp.Cycles
		busyByOp[sp.Op] += sp.dur()
	}
	res.set("sim.points", float64(len(durs("sim.compute", time.Millisecond, isKind("sim"))))/np, "count/op")
	res.set("sim.structural_points", float64(len(durs("sim.compute", time.Millisecond, isKind("structural"))))/np, "count/op")
	res.set("sim.busy_s", busy.Seconds()/np, "s")
	res.set("sim.point_p50_ms", median(durs("sim.compute", time.Millisecond, isKind("sim"))), "ms")
	res.set("sim.structural_point_p50_ms", median(durs("sim.compute", time.Millisecond, isKind("structural"))), "ms")
	res.set("sim.mcycles_per_s", ratio(float64(cycles)/1e6, busy.Seconds()), "mcycles/s")

	var hits, misses, storeHits, remote, evictions, diskHits, diskMisses float64
	for _, p := range passes {
		hits += float64(p.eng.Hits)
		misses += float64(p.eng.Misses)
		storeHits += float64(p.eng.StoreHits)
		remote += float64(p.eng.Remote)
		evictions += float64(p.eng.Evictions)
		diskHits += float64(p.st.DiskHits)
		diskMisses += float64(p.st.DiskMisses)
	}
	engineCounts(res, hits/np, misses/np, storeHits/np, remote/np, evictions/np)
	var waits, resolves []float64
	for _, sp := range spans {
		if sp.Track == "engine" {
			resolves = append(resolves, us(sp.dur()))
			if sp.Name == "engine.simulated" {
				waits = append(waits, ms(sp.Wait))
			}
		}
	}
	res.set("engine.queue_wait_p90_ms", percentile(waits, 0.9), "ms")
	res.set("engine.resolve_p50_us", median(resolves), "us")
	workers := float64(runtime.GOMAXPROCS(0))
	var idle, self []float64
	kids := map[uint64][]span{}
	for _, sp := range byName["figures.resolve"] {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	for _, run := range byName["figures.run"] {
		idle = append(idle, workers*run.dur().Seconds()-busyByOp[run.Op].Seconds())
		self = append(self, ms(run.dur()-covered(run, kids[run.ID])))
	}
	res.set("engine.idle_worker_s", median(idle), "s")

	keyUS, payloadUS := identityCost(s.points)
	res.set("exp.key_us", keyUS, "us")
	res.set("exp.payload_us", payloadUS, "us")

	res.set("store.open_ms", median(durs("store.open", time.Millisecond, nil)), "ms")
	res.set("store.loads", float64(len(byName["store.load"]))/np, "count/op")
	res.set("store.load_p50_us", median(durs("store.load", time.Microsecond, nil)), "us")
	res.set("store.disk_hit_ratio", ratio(diskHits, diskHits+diskMisses), "ratio")
	res.set("store.saves", float64(len(byName["store.save"]))/np, "count/op")
	res.set("store.save_p50_us", median(durs("store.save", time.Microsecond, nil)), "us")
	res.set("store.bytes", float64(passes[len(passes)-1].st.Bytes), "B")

	res.set("figures.self_ms", median(self), "ms")
	res.set("figures.render_ms", median(durs("figures.render", time.Millisecond, nil)), "ms")
}

// engineCounts sets the engine's per-operation counters and hit ratio.
func engineCounts(res *result, hits, misses, storeHits, remote, evictions float64) {
	res.set("engine.hits", hits, "count/op")
	res.set("engine.misses", misses, "count/op")
	res.set("engine.store_hits", storeHits, "count/op")
	res.set("engine.remote", remote, "count/op")
	res.set("engine.evictions", evictions, "count/op")
	res.set("engine.hit_ratio", ratio(hits, hits+misses+storeHits+remote), "ratio")
}
