package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/metrics"
	"scaleout/internal/serve"
)

const (
	replicas       = 3
	pointsPerReq   = 16
	openLoopRate   = 80.0  // requests per second, about a third of closed-loop capacity on 2 cores
	openShare      = 0.5   // share of the measured seconds spent open loop; the rest is closed loop
	replicaMemoCap = 16384 // soprocd's -memo-cap default
	warmupRequests = 200
	traceRing      = 1 << 16 // decision records kept per node in a traced run
)

// Request streams: each phase draws its requests from its own seeded
// sequence, so a phase's inputs do not depend on how far another got.
const (
	streamWarmup uint64 = iota + 1
	streamOpen
	streamClosed
)

// node is one in-process daemon wired like cmd/soprocd:
// admit.Middleware → serve.Server → tier → bounded engine, with metrics
// on.
type node struct {
	name  string
	eng   *exp.Engine
	ctrl  *admit.Controller
	coord *cluster.Coordinator // coordinator node only
	hs    *http.Server
	addr  string        // host:port
	done  chan struct{} // closed when hs.Serve has returned
}

// startNode starts a node on a loopback port. peers makes it a
// coordinator over them. A non-nil rec traces it: decision ring on,
// timing handlers outside admission and outside the server, and — on
// a coordinator — a timed Route and RoundTripper.
func startNode(name string, memoCap int, peers []string, rec *recorder) (*node, error) {
	n := &node{name: name, eng: exp.NewBounded(0, memoCap)}
	srv := serve.New(n.eng)
	obs := srv.EnableObservability(serve.ObservabilityOptions{TraceDecisions: rec != nil, TraceCapacity: traceRing})
	if len(peers) > 0 {
		var opts []cluster.Option
		if rec != nil {
			opts = append(opts, cluster.WithHTTPClient(&http.Client{Transport: timedTransport{rec: rec, next: http.DefaultTransport}}))
		}
		coord, err := cluster.New(peers, opts...)
		if err != nil {
			return nil, err
		}
		route := exp.Route(coord.Route)
		if rec != nil {
			route = timedRoute(rec, route)
		}
		n.eng.SetRoute(route)
		srv.SetClusterStats(func() any { return coord.Stats() })
		coord.RegisterMetrics(obs.Registry)
		n.coord = coord
	}
	n.ctrl = admit.New(admit.Options{QueueDepth: 128})
	srv.SetAdmitStats(func() any { return n.ctrl.Stats() })
	n.ctrl.RegisterMetrics(obs.Registry)

	h := srv.Handler()
	if rec != nil {
		h = timedHandler(rec, name+".serve", name, false, h)
	}
	h = n.ctrl.Middleware(h)
	if rec != nil {
		h = timedHandler(rec, name+".http", name, true, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.addr = ln.Addr().String()
	n.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) // returns http.ErrServerClosed once close stops it
	}()
	return n, nil
}

// close stops the node and waits for its server to return.
func (n *node) close() {
	n.hs.Close()
	<-n.done
}

// deployment is a coordinator over three replicas.
type deployment struct {
	coord    *node
	replicas []*node
	rec      *recorder // nil unless traced
}

func deploy(coordMemoCap int, rec *recorder) (*deployment, error) {
	d := &deployment{rec: rec}
	var peers []string
	for i := 0; i < replicas; i++ {
		r, err := startNode("replica-"+strconv.Itoa(i), replicaMemoCap, nil, rec)
		if err != nil {
			d.close()
			return nil, err
		}
		d.replicas = append(d.replicas, r)
		peers = append(peers, r.addr)
	}
	c, err := startNode("coord", coordMemoCap, peers, rec)
	if err != nil {
		d.close()
		return nil, err
	}
	d.coord = c
	return d, nil
}

func (d *deployment) nodes() []*node { return append([]*node{d.coord}, d.replicas...) }

func (d *deployment) close() {
	for _, n := range d.nodes() {
		if n != nil {
			n.close()
		}
	}
}

// sweepCluster is the sweep_cluster workload.
type sweepCluster struct {
	o      options
	points []suitePoint
	bodies [][]byte          // each point as a /v1/sweep point object
	ref    []json.RawMessage // each point's answer in set-up
	client *http.Client
	conns  int
	plain  *deployment
	traced *deployment // traced runs only
}

func (c *sweepCluster) setup() error {
	pts, err := suitePoints()
	if err != nil {
		return err
	}
	c.points = pts
	for _, p := range pts {
		b, err := json.Marshal(serve.SweepPoint{Config: p.wire})
		if err != nil {
			return err
		}
		c.bodies = append(c.bodies, b)
	}
	c.conns = runtime.NumCPU()
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost, t.MaxIdleConnsPerHost = c.conns, c.conns
	c.client = &http.Client{Transport: t, Timeout: time.Minute}

	// The coordinator's memo holds about a third of the suite, so most
	// requested points miss there and route to the replica shards.
	memoCap := len(pts) / 3
	if c.plain, err = deploy(memoCap, nil); err != nil {
		return err
	}
	if err := c.warm(c.plain); err != nil {
		return err
	}
	if c.o.trace {
		if c.traced, err = deploy(memoCap, newRecorder()); err != nil {
			return err
		}
		return c.warm(c.traced)
	}
	return nil
}

// warm routes every suite point through d once, so each replica holds
// its shard, records (or, on a second deployment, checks) each point's
// answer, then sends warm-up traffic. The points go in request-sized
// chunks, one at a time: one request of the whole suite would have
// every structural point's machine alive at once, and the process's
// peak memory would hang on how those simulations interleave.
func (c *sweepCluster) warm(d *deployment) error {
	record := c.ref == nil
	for from := 0; from < len(c.points); from += pointsPerReq {
		idx := make([]int, 0, pointsPerReq)
		for i := from; i < min(from+pointsPerReq, len(c.points)); i++ {
			idx = append(idx, i)
		}
		res, err := c.post(d, idx, 0)
		if err == nil && !record {
			err = c.compare(idx, res)
		}
		if err != nil {
			return fmt.Errorf("warming the replicas: %w", err)
		}
		if record {
			c.ref = append(c.ref, res...)
		}
	}
	if r := c.closedLoop(d, 0, warmupRequests, streamWarmup); r.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", r.failed, r.attempted)
	}
	return nil
}

func (c *sweepCluster) close() {
	c.plain.close()
	if c.traced != nil {
		c.traced.close()
	}
	c.client.CloseIdleConnections()
}

// draw returns request k of a stream: pointsPerReq distinct suite
// points chosen by the workload seed.
func (c *sweepCluster) draw(stream, k uint64) []int {
	r := rand.New(rand.NewPCG(c.o.seed, stream<<48|k))
	return r.Perm(len(c.points))[:pointsPerReq]
}

// post sends one exact-tier /v1/sweep of the points idx to d's
// coordinator and returns the raw per-point results. parent, when
// non-zero, is the client span the request belongs to.
func (c *sweepCluster) post(d *deployment, idx []int, parent uint64) ([]json.RawMessage, error) {
	var body bytes.Buffer
	body.WriteString(`{"tier":"exact","points":[`)
	for k, i := range idx {
		if k > 0 {
			body.WriteByte(',')
		}
		body.Write(c.bodies[i])
	}
	body.WriteString(`]}`)
	req, err := http.NewRequest(http.MethodPost, "http://"+d.coord.addr+"/v1/sweep", &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(admit.ClientHeader, "sobench")
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(parent, 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var sr struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, err
	}
	if len(sr.Results) != len(idx) {
		return nil, fmt.Errorf("%d results for %d points", len(sr.Results), len(idx))
	}
	return sr.Results, nil
}

// compare checks each result against the point's set-up answer.
func (c *sweepCluster) compare(idx []int, results []json.RawMessage) error {
	for k, i := range idx {
		if !bytes.Equal(results[k], c.ref[i]) {
			return fmt.Errorf("point %d: answer differs from set-up", i)
		}
	}
	return nil
}

// sweep sends request k of stream to d and applies the correctness
// gate: status 200, one result per point, every result as in set-up.
func (c *sweepCluster) sweep(d *deployment, stream, k uint64) error {
	idx := c.draw(stream, k)
	var id uint64
	var start time.Duration
	if d.rec != nil {
		id, start = d.rec.newID(), d.rec.now()
	}
	results, err := c.post(d, idx, id)
	if err == nil {
		err = c.compare(idx, results)
	}
	if d.rec != nil {
		d.rec.add(span{Name: "client.request", Track: "client", ID: id, Op: int(k), Start: start, End: d.rec.now()})
	}
	return err
}

// loopResult is what a load phase measured.
type loopResult struct {
	phase        // successful requests (open loop: latency from due time)
	attempted    int
	failed       int
	late         []float64 // open loop: dispatcher wake-up lateness, ms
	scrapeMS     []float64
	scrapeBytes  []float64
	scrapeFailed int
}

func (r *loopResult) record(err error, lat, at time.Duration) {
	r.attempted++
	if err != nil {
		if r.failed == 0 {
			fmt.Fprintln(os.Stderr, "sobench: request failed:", err)
		}
		r.failed++
		return
	}
	r.add(lat, at)
}

// openLoop sends stream's requests to d at openLoopRate for dur, over
// c.conns connections. Each latency runs from the request's due time,
// so a stall is charged to every request it delays. A /metricsz scrape
// runs once a second through the same client.
func (c *sweepCluster) openLoop(d *deployment, dur time.Duration, stream uint64) *loopResult {
	res := &loopResult{}
	var mu sync.Mutex
	type job struct {
		due time.Time
		at  time.Duration // due time into the phase
		k   uint64
	}
	interval := time.Duration(float64(time.Second) / openLoopRate)
	// Room for every request of the phase: the dispatcher must never
	// wait for a worker, or the schedule would bend to the system.
	jobs := make(chan job, int(dur/interval)+1)
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := c.sweep(d, stream, j.k)
				lat := time.Since(j.due)
				mu.Lock()
				res.record(err, lat, j.at)
				mu.Unlock()
			}
		}()
	}
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				ms, n, err := c.scrape(d)
				mu.Lock()
				if err != nil {
					res.scrapeFailed++
					fmt.Fprintln(os.Stderr, "sobench: /metricsz scrape failed:", err)
				} else {
					res.scrapeMS = append(res.scrapeMS, ms)
					res.scrapeBytes = append(res.scrapeBytes, float64(n))
				}
				mu.Unlock()
			}
		}
	}()

	start := time.Now()
	for k := uint64(0); ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.Sub(start) >= dur {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.late = append(res.late, ms(time.Since(due)))
		jobs <- job{due: due, at: due.Sub(start), k: k}
	}
	close(jobs)
	wg.Wait()
	close(stop)
	scrapes.Wait()
	res.wall = time.Since(start)
	return res
}

// closedLoop sends stream's requests back to back on c.conns
// connections, for dur or — when count > 0 — for count requests.
func (c *sweepCluster) closedLoop(d *deployment, dur time.Duration, count int, stream uint64) *loopResult {
	res := &loopResult{}
	var mu sync.Mutex
	var next atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if (count > 0 && k >= uint64(count)) || (count == 0 && time.Since(start) >= dur) {
					return
				}
				t := time.Now()
				err := c.sweep(d, stream, k)
				lat := time.Since(t)
				mu.Lock()
				res.record(err, lat, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// scrape reads the coordinator's /metricsz page and checks it parses.
func (c *sweepCluster) scrape(d *deployment) (float64, int, error) {
	start := time.Now()
	resp, err := c.client.Get("http://" + d.coord.addr + "/metricsz")
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("%s", resp.Status)
	}
	if _, err := metrics.ParseText(string(body)); err != nil {
		return 0, 0, err
	}
	return ms(elapsed), len(body), nil
}

// gate fails the run when the coordinator computed any point locally:
// every suite point must be routable and answered by a replica.
func (c *sweepCluster) gate(d *deployment, res *result) {
	cs := d.coord.coord.Stats()
	if cs.Unroutable != 0 || cs.LocalFallbacks != 0 {
		fmt.Fprintf(os.Stderr, "sobench: cluster computed locally: %d unroutable, %d fallbacks\n", cs.Unroutable, cs.LocalFallbacks)
		res.Correct = false
	}
}

func (c *sweepCluster) measure() (*result, error) {
	res := &result{Correct: true}
	if c.o.trace {
		return res, c.measureTraced(res)
	}
	// The closed loop runs first: it continues the warm-up's regime, so
	// its first window carries no transition.
	total := time.Duration(c.o.seconds * float64(time.Second))
	closed := c.closedLoop(c.plain, total-time.Duration(openShare*float64(total)), 0, streamClosed)
	open := c.openLoop(c.plain, time.Duration(openShare*float64(total)), streamOpen)
	res.Attempted = open.attempted + closed.attempted
	res.Failed = open.failed + closed.failed
	res.Correct = res.Failed == 0 && open.scrapeFailed == 0
	c.gate(c.plain, res)
	res.Ops = summarize(&open.phase, &closed.phase, pointsPerReq)
	res.Diag = map[string]float64{
		"gen.late_p90_ms": percentile(open.late, 0.9),
		"gen.p99_ms":      percentile(open.lat, 0.99),
	}
	return res, nil
}

// snapshot is the counters of a deployment at one instant.
type snapshot struct {
	coordEng  exp.Stats
	cluster   cluster.Stats
	simulated int64 // memo misses over every node
	admitted  int64
	shed      int64
	scored    int64
	escalated int64
}

func (c *sweepCluster) snapshot(d *deployment) (snapshot, error) {
	s := snapshot{coordEng: d.coord.eng.Stats(), cluster: d.coord.coord.Stats()}
	for _, n := range d.nodes() {
		s.simulated += n.eng.Stats().Misses
		as := n.ctrl.Stats()
		s.admitted += as.Admitted
		s.shed += as.RateLimited + as.ShedQueueFull + as.ShedDraining
		var st serve.StatsResponse
		if err := c.getJSON(n, "/statsz", &st); err != nil {
			return s, err
		}
		s.scored += st.Tier.Scored
		s.escalated += st.Tier.Escalated
	}
	return s, nil
}

func (c *sweepCluster) getJSON(n *node, path string, v any) error {
	resp, err := c.client.Get("http://" + n.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// measureTraced runs the open loop on the untraced deployment and then
// on the traced one, with the same requests, and reports the per-layer
// metrics of the traced phase.
func (c *sweepCluster) measureTraced(res *result) error {
	half := time.Duration(c.o.seconds * float64(time.Second) / 2)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := c.openLoop(c.plain, half, streamOpen)
	runtime.ReadMemStats(&m1)

	d := c.traced
	before, err := c.snapshot(d)
	if err != nil {
		return err
	}
	t0 := d.rec.now()
	tracedAt := time.Now()
	traced := c.openLoop(d, half, streamOpen)
	after, err := c.snapshot(d)
	if err != nil {
		return err
	}
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	res.Correct = res.Failed == 0 && plain.scrapeFailed == 0 && traced.scrapeFailed == 0
	c.gate(c.plain, res)
	c.gate(d, res)

	spans := d.rec.since(t0)
	ring, err := c.decisions(d, tracedAt)
	if err != nil {
		return err
	}
	layers(res)
	n := float64(traced.attempted) // counters are per request
	per := func(a, b int64) float64 { return float64(a-b) / n }
	res.set("sim.points", per(after.simulated, before.simulated), "count/op")
	engineCounts(res,
		per(after.coordEng.Hits, before.coordEng.Hits),
		per(after.coordEng.Misses, before.coordEng.Misses),
		per(after.coordEng.StoreHits, before.coordEng.StoreHits),
		per(after.coordEng.Remote, before.coordEng.Remote),
		per(after.coordEng.Evictions, before.coordEng.Evictions))
	var waits, resolves []float64
	for _, dc := range ring["coord"] {
		if dc.Source == "evicted" {
			continue
		}
		resolves = append(resolves, dc.LatencySeconds*1e6)
		if dc.Source == "simulated" {
			waits = append(waits, dc.QueueWaitSeconds*1e3)
		}
	}
	res.set("engine.queue_wait_p90_ms", percentile(waits, 0.9), "ms")
	res.set("engine.resolve_p50_us", median(resolves), "us")
	workers := float64(d.coord.eng.Workers())
	var idle []float64
	for _, l := range traced.lat {
		idle = append(idle, workers*l/1e3)
	}
	res.set("engine.idle_worker_s", median(idle), "s")
	keyUS, payloadUS := identityCost(c.points)
	res.set("exp.key_us", keyUS, "us")
	res.set("exp.payload_us", payloadUS, "us")

	res.set("tier.scored", per(after.scored, before.scored), "count/op")
	res.set("tier.escalation_rate", ratio(float64(after.escalated-before.escalated), float64(after.scored-before.scored)), "ratio")

	c.serveLayers(res, spans, n)
	res.set("admit.admitted", per(after.admitted, before.admitted), "count/op")
	res.set("admit.shed", per(after.shed, before.shed), "count/op")

	routed := after.cluster.Routed - before.cluster.Routed
	posts := after.cluster.Posts - before.cluster.Posts
	res.set("cluster.routed", float64(routed)/n, "count/op")
	res.set("cluster.posts", float64(posts)/n, "count/op")
	res.set("cluster.points_per_post", ratio(float64(routed), float64(posts)), "points/post")
	res.set("cluster.retries", per(after.cluster.Retries, before.cluster.Retries), "count/op")
	res.set("cluster.failovers", per(after.cluster.Failovers, before.cluster.Failovers), "count/op")
	res.set("cluster.fallbacks", per(after.cluster.LocalFallbacks, before.cluster.LocalFallbacks), "count/op")
	res.set("cluster.unroutable", per(after.cluster.Unroutable, before.cluster.Unroutable), "count/op")
	c.routeLayers(res, spans)

	res.set("metrics.scrape_ms", median(plain.scrapeMS), "ms")
	res.set("metrics.scrape_bytes", median(plain.scrapeBytes), "B")
	res.set("trace.overhead_pct", 100*(ratio(median(traced.lat), median(plain.lat))-1), "%")
	res.set("gen.late_p90_ms", percentile(plain.late, 0.9), "ms")
	res.set("gen.p99_ms", percentile(plain.lat, 0.99), "ms")
	res.set("go.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(plain.attempted), "MB/op")
	res.set("go.gc_per_op", float64(m1.NumGC-m0.NumGC)/float64(plain.attempted), "gc/op")

	for name, recs := range ring {
		spans = append(spans, decisionSpans(d.rec, name, recs)...)
	}
	return writeTrace(c.o.traceOut, spans)
}

// serveLayers sets the serve and admission metrics from the node
// handler spans: outer spans include admission, inner spans are the
// server alone.
func (c *sweepCluster) serveLayers(res *result, spans []span, requests float64) {
	inner := map[uint64]span{} // by parent (outer) span ID
	var coordServe, replicaServe []float64
	var reqBytes, respBytes, points float64
	non2xx := 0
	for _, s := range spans {
		switch {
		case strings.HasSuffix(s.Name, ".serve"):
			inner[s.Parent] = s
			if s.Kind != "/v1/sweep" {
				continue
			}
			if s.Name == "coord.serve" {
				coordServe = append(coordServe, ms(s.dur()))
			} else {
				replicaServe = append(replicaServe, ms(s.dur()))
			}
		case strings.HasSuffix(s.Name, ".http"):
			if s.Status < 200 || s.Status > 299 {
				non2xx++
			}
			if s.Name == "coord.http" && s.Kind == "/v1/sweep" {
				reqBytes += float64(s.Bytes)
				respBytes += float64(s.RBytes)
				points += pointsPerReq
			}
		}
	}
	var waits []float64
	for _, s := range spans {
		if s.Name == "coord.http" && s.Kind == "/v1/sweep" {
			if in, ok := inner[s.ID]; ok {
				waits = append(waits, ms(in.Start-s.Start))
			}
		}
	}
	res.set("serve.coord_p50_ms", median(coordServe), "ms")
	res.set("serve.replica_p50_ms", median(replicaServe), "ms")
	res.set("serve.req_bytes_per_point", ratio(reqBytes, points), "B/point")
	res.set("serve.resp_bytes_per_point", ratio(respBytes, points), "B/point")
	res.set("serve.non2xx", float64(non2xx)/requests, "count/op")
	res.set("admit.wait_p90_ms", percentile(waits, 0.9), "ms")
}

// routeLayers sets the route, post and batch-window latencies. A
// routed point waited in its batch window from its Route call until
// the POST that answered it — the last POST to its replica that lies
// inside the Route span — was sent.
func (c *sweepCluster) routeLayers(res *result, spans []span) {
	var routes, rtts []float64
	posts := map[string][]span{} // by replica host, sorted by end
	for _, s := range spans {
		if s.Name == "cluster.post" {
			rtts = append(rtts, ms(s.dur()))
			posts[s.Kind] = append(posts[s.Kind], s)
		}
	}
	for _, p := range posts {
		sort.Slice(p, func(i, j int) bool { return p[i].End < p[j].End })
	}
	var windows []float64
	for _, s := range spans {
		if s.Name != "cluster.route" {
			continue
		}
		routes = append(routes, ms(s.dur()))
		p := posts[s.Kind]
		i := sort.Search(len(p), func(i int) bool { return p[i].End > s.End }) - 1
		if i >= 0 && p[i].Start >= s.Start {
			windows = append(windows, ms(p[i].Start-s.Start))
		}
	}
	res.set("cluster.route_p50_ms", median(routes), "ms")
	res.set("cluster.post_rtt_p50_ms", median(rtts), "ms")
	res.set("cluster.window_wait_p50_ms", median(windows), "ms")
}

// decisions reads every node's /v1/trace ring and keeps the records
// appended since t.
func (c *sweepCluster) decisions(d *deployment, t time.Time) (map[string][]metrics.Decision, error) {
	out := map[string][]metrics.Decision{}
	for _, n := range d.nodes() {
		var tr serve.TraceResponse
		if err := c.getJSON(n, "/v1/trace?n="+strconv.Itoa(traceRing), &tr); err != nil {
			return nil, err
		}
		for _, dc := range tr.Decisions {
			if dc.UnixNanos >= t.UnixNano() {
				out[n.name] = append(out[n.name], dc)
			}
		}
	}
	return out, nil
}

// decisionSpans turns one node's decision records into spans ending at
// their append time, for the span file.
func decisionSpans(rec *recorder, node string, recs []metrics.Decision) []span {
	out := make([]span, 0, len(recs))
	for _, dc := range recs {
		end := time.Unix(0, dc.UnixNanos).Sub(rec.t0)
		lat := time.Duration(dc.LatencySeconds * float64(time.Second))
		out = append(out, span{Name: "engine." + dc.Source, Track: node + ".engine", ID: rec.newID(),
			Start: end - lat, End: end, Kind: dc.Replica, Wait: time.Duration(dc.QueueWaitSeconds * float64(time.Second))})
	}
	return out
}
