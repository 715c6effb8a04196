// Package cluster federates the sweep engine across soprocd replicas,
// the way the paper's pod architecture scales by replicating
// self-contained pods behind a thin interconnect rather than growing
// one monolith.
//
// A Coordinator is an engine Route (exp.Route): installed on an engine
// with SetRoute, it intercepts each memo miss whose point carries a
// wire-form payload (sim.WireConfig — the versioned, complete encoding
// every engine point attaches via sim's WirePayload), wraps it in a
// /v1/sweep complete-form point (serve.WirePoint), and ships it to the
// replica that owns the point's canonical fingerprint. Because the wire
// form carries the full interconnect and workload specification, every
// point a figure can construct is routable — there is no symbolic
// subset that silently computes on the coordinator. A point can still
// be unroutable (an invalid configuration, or a payload type with no
// wire form): that is counted, logged on first occurrence, and
// declined to local compute, so representability regressions are
// visible in /statsz rather than silent.
// Ownership is rendezvous (highest-random-weight) hashing over the
// fingerprint: every coordinator agrees on the owner without shared
// state, each replica's memo accumulates a disjoint shard of the design
// space — so the global hit rate survives coordinator restarts — and
// when a replica dies only its shard re-hashes, each key to its
// next-ranked owner, while every other key keeps its warm replica.
//
// Points bound for the same replica are micro-batched into one
// /v1/sweep POST (the engine releases a whole sweep's misses at once,
// so a short batch window collects them), and concurrent identical
// points are deduplicated by the engine's single-flight memo before
// they reach the coordinator.
//
// Failure handling is layered for the degraded regime, not just the
// dead one. A transient failure (connection error, 5xx, torn response,
// post timeout) is retried on the same replica with jittered
// exponential backoff, a bounded number of times (WithRetries); only
// when the budget is exhausted is the replica marked down for a
// cooldown and the point failed over to its next-ranked owner. A 429
// from a replica's admission controller is different: the replica is
// shedding load, not dying, so the coordinator honors its Retry-After
// hint (clamped between the backoff base and the cooldown) and never
// marks it down. A definitive 4xx other than 429 — most notably the
// structured wire_version 400 from a replica that does not speak this
// coordinator's wire encoding — is permanent for that replica: the same
// bytes can never succeed there, so the point moves straight to the
// next-ranked owner with no retry and no markDown (the replica is
// healthy, just incompatible). A replica in cooldown is probed actively
// (GET /healthz every WithProbeInterval) so it returns to rotation as
// soon as it recovers rather than when the cooldown clock says so.
// Every post carries a per-request timeout (WithPostTimeout) so one
// hung replica cannot pin a batch for the old flat ten minutes. If
// every replica is unreachable the Route declines and the engine
// computes locally — sharding changes only where a point runs, never
// its result, so cluster output is byte-identical to single-node
// output, under fault injection included (see internal/chaos).
//
// All time-dependent behavior — cooldowns, backoff, batch windows,
// probe scheduling — runs on an injectable clock (WithClock,
// internal/vclock), so the failure logic is deterministic in tests.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/exp/engine"
	"scaleout/internal/metrics"
	"scaleout/internal/serve"
	"scaleout/internal/sim"
	"scaleout/internal/vclock"
)

// Coordinator shards routable sweep points across soprocd replicas.
// Construct with New; install on an engine with eng.SetRoute(c.Route).
// A Coordinator is safe for concurrent use.
type Coordinator struct {
	replicas      []*replica
	client        *http.Client
	clock         vclock.Clock
	window        time.Duration
	maxBatch      int
	cooldown      time.Duration
	retries       int
	backoffBase   time.Duration
	backoffCap    time.Duration
	postTimeout   time.Duration
	probeInterval time.Duration
	probeTimeout  time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter; seeded for deterministic tests

	mu      sync.Mutex
	batches map[*replica]*batch

	routed     atomic.Int64 // points answered by a replica
	failovers  atomic.Int64 // points retried past their first-choice owner
	fallbacks  atomic.Int64 // points declined because every replica failed
	unroutable atomic.Int64 // points not representable on the wire
	rejects    atomic.Int64 // permanent replica rejections (4xx other than 429)
	posts      atomic.Int64 // /v1/sweep requests issued
	retried    atomic.Int64 // same-replica re-attempts after transient failures
	busy       atomic.Int64 // 429 responses honored (replica shedding load)

	// Silent degradation is the failure mode this PR class exists to
	// kill: the first unroutable point, permanent rejection, and local
	// fallback of a coordinator's lifetime are each logged once, so a
	// run that quietly stopped sharding says why.
	logUnroutable sync.Once
	logReject     sync.Once
	logFallback   sync.Once
}

// Option configures a Coordinator at construction.
type Option func(*Coordinator)

// WithBatchWindow sets how long the first point bound for a replica
// waits for companions before its batch is POSTed (default 2ms; <= 0
// flushes every point immediately in its own request).
func WithBatchWindow(d time.Duration) Option {
	return func(c *Coordinator) { c.window = d }
}

// WithMaxBatch caps the points per /v1/sweep POST (default
// serve.MaxSweepPoints, the most a replica accepts).
func WithMaxBatch(n int) Option {
	return func(c *Coordinator) {
		if n > 0 {
			c.maxBatch = n
		}
	}
}

// WithCooldown sets how long a failed replica is skipped before it is
// offered work again by wall clock alone (default 3s); active health
// probing (WithProbeInterval) can end the cooldown earlier.
func WithCooldown(d time.Duration) Option {
	return func(c *Coordinator) { c.cooldown = d }
}

// WithHTTPClient replaces the HTTP client used for replica requests
// (default: a dedicated client with no global timeout — every post is
// individually bounded by WithPostTimeout instead).
func WithHTTPClient(cl *http.Client) Option {
	return func(c *Coordinator) { c.client = cl }
}

// WithRetries bounds how many times a failed post is re-attempted on
// the same replica — with jittered exponential backoff — before the
// replica is marked down and the point fails over to its next-ranked
// owner (default 2, i.e. up to 3 attempts per replica; negative is
// treated as 0).
func WithRetries(n int) Option {
	return func(c *Coordinator) {
		if n < 0 {
			n = 0
		}
		c.retries = n
	}
}

// WithBackoff sets the retry backoff's base and cap: attempt n waits a
// jittered duration in [d/2, d] where d = min(base<<n, cap) (defaults
// 25ms and 1s).
func WithBackoff(base, cap time.Duration) Option {
	return func(c *Coordinator) {
		if base > 0 {
			c.backoffBase = base
		}
		if cap > 0 {
			c.backoffCap = cap
		}
	}
}

// WithPostTimeout bounds one forwarded /v1/sweep request (default 2m;
// <= 0 leaves posts untimed). A post that times out counts as a
// transient replica failure: retried, then failed over.
func WithPostTimeout(d time.Duration) Option {
	return func(c *Coordinator) { c.postTimeout = d }
}

// WithProbeInterval sets how often a replica in cooldown is probed with
// GET /healthz so it can return to rotation before the cooldown
// expires (default 500ms; <= 0 disables probing and leaves recovery to
// the cooldown clock alone).
func WithProbeInterval(d time.Duration) Option {
	return func(c *Coordinator) { c.probeInterval = d }
}

// WithClock injects the coordinator's clock (default the system
// clock). Tests inject a vclock.Fake so cooldown expiry, backoff, and
// batch windows are driven by Advance instead of real sleeps. Post
// timeouts are context deadlines and always run on real time.
func WithClock(clk vclock.Clock) Option {
	return func(c *Coordinator) {
		if clk != nil {
			c.clock = clk
		}
	}
}

// WithJitterSeed seeds the backoff jitter (default 1), making retry
// schedules reproducible.
func WithJitterSeed(seed int64) Option {
	return func(c *Coordinator) { c.rng = rand.New(rand.NewSource(seed)) }
}

// New returns a coordinator over the given replica addresses
// ("host:port", or a full http:// base URL). It validates only shape,
// not liveness: a replica that is down when work arrives is skipped
// (cooldown) and its shard re-hashes to the next owners.
func New(peers []string, opts ...Option) (*Coordinator, error) {
	c := &Coordinator{
		client:        &http.Client{},
		clock:         vclock.System{},
		window:        2 * time.Millisecond,
		maxBatch:      serve.MaxSweepPoints,
		cooldown:      3 * time.Second,
		retries:       2,
		backoffBase:   25 * time.Millisecond,
		backoffCap:    time.Second,
		postTimeout:   2 * time.Minute,
		probeInterval: 500 * time.Millisecond,
		probeTimeout:  2 * time.Second,
		rng:           rand.New(rand.NewSource(1)),
		batches:       make(map[*replica]*batch),
	}
	for _, o := range opts {
		o(c)
	}
	seen := make(map[string]bool)
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		base := p
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		base = strings.TrimRight(base, "/")
		if seen[base] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[base] = true
		c.replicas = append(c.replicas, &replica{addr: p, base: base, hash: fnv64a(base)})
	}
	if len(c.replicas) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	return c, nil
}

// replica is one soprocd backend and its health/traffic accounting.
type replica struct {
	addr string // as configured (-peers)
	base string // http://host:port
	hash uint64 // fnv64a(base): the replica's half of every rendezvous score

	downUntil atomic.Int64 // unix nanos; 0 = healthy
	probing   atomic.Bool  // a health-probe goroutine is active
	sent      atomic.Int64 // points this replica answered
	failures  atomic.Int64 // failed /v1/sweep attempts
	busy      atomic.Int64 // 429 responses (shedding, not failing)
	probes    atomic.Int64 // /healthz probes issued while in cooldown
}

func (r *replica) down(now time.Time) bool {
	return now.UnixNano() < r.downUntil.Load()
}

func (r *replica) markDown(now time.Time, cooldown time.Duration) {
	r.downUntil.Store(now.Add(cooldown).UnixNano())
}

// busyError is a replica's 429: it is shedding load, not failing, so
// the caller honors RetryAfter instead of marking the replica down.
type busyError struct {
	replica    string
	retryAfter time.Duration
}

func (e *busyError) Error() string {
	return fmt.Sprintf("cluster: %s shedding load (retry after %s)", e.replica, e.retryAfter)
}

// rejectError is a replica's definitive 4xx other than 429: the request
// itself was refused — most notably a wire_version this replica does
// not speak — so retrying the same bytes cannot succeed, and the
// replica is compatible-unhealthy rather than down. The coordinator
// moves to the next candidate with no retry and no markDown.
type rejectError struct {
	replica     string
	status      string
	msg         string
	wireVersion int // non-zero when the replica reported a wire_version mismatch
}

func (e *rejectError) Error() string {
	if e.wireVersion != 0 {
		return fmt.Sprintf("cluster: %s rejected wire_version %d: %s", e.replica, e.wireVersion, e.msg)
	}
	return fmt.Sprintf("cluster: %s rejected request: %s: %s", e.replica, e.status, e.msg)
}

// declineUnroutable counts an unroutable point, logs the first
// occurrence of a coordinator's lifetime, and leaves the point to local
// compute.
func (c *Coordinator) declineUnroutable(key string, err error) {
	c.unroutable.Add(1)
	c.logUnroutable.Do(func() {
		log.Printf("cluster: unroutable point (computing locally; first occurrence, key %s): %v", key, err)
	})
}

// Route implements exp.Route: it ships a wire-form payload
// (sim.WireConfig) to the replica owning key — retrying transient
// failures on the same replica under the bounded backoff budget,
// honoring 429 Retry-After hints, treating definitive 4xx rejections
// (wire-version mismatches included) as permanent per replica, and
// failing over in rendezvous order — and declines (handled=false)
// payloads that carry no wire form (sim.Unroutable markers, foreign
// types) or that no replica would take; the engine then computes them
// locally with identical results. Every decline is counted, and the
// first of each kind per run is logged.
func (c *Coordinator) Route(ctx context.Context, key string, payload any) (any, bool, error) {
	var wc sim.WireConfig
	switch p := payload.(type) {
	case sim.WireConfig:
		wc = p
	case sim.Unroutable:
		c.declineUnroutable(key, p.Err)
		return nil, false, nil
	default:
		c.declineUnroutable(key, fmt.Errorf("payload type %T has no wire form", payload))
		return nil, false, nil
	}
	wire, err := serve.WirePoint(wc)
	if err != nil {
		c.declineUnroutable(key, err)
		return nil, false, nil
	}
	kind := wc.Kind

	// Candidate order: healthy replicas in rendezvous rank, then — as a
	// last resort, if the whole cluster looks down, an attempt is still
	// cheaper than silently degrading to local-only — the ones already
	// in cooldown when this point arrived. Down-ness is snapshotted
	// here so a replica that fails during this very call is never
	// immediately re-attempted by the same point.
	ranked := c.rank(key)
	now := c.clock.Now()
	candidates := make([]*replica, 0, len(ranked))
	for _, rep := range ranked {
		if !rep.down(now) {
			candidates = append(candidates, rep)
		}
	}
	for _, rep := range ranked {
		if rep.down(now) {
			candidates = append(candidates, rep)
		}
	}
	pointRetries := 0 // same-replica re-attempts for this point, all replicas
	for attempt, rep := range candidates {
		for try := 0; ; try++ {
			res, err := c.enqueue(ctx, rep, wire)
			if err == nil {
				val, derr := decodeResult(kind, res)
				if derr == nil {
					if attempt > 0 {
						c.failovers.Add(1)
					}
					c.routed.Add(1)
					// An observed request (engine decision hook installed)
					// carries a RouteInfo slot: record where the point
					// actually ran for its trace record.
					if ri := engine.RouteInfoFrom(ctx); ri != nil {
						ri.Replica = rep.addr
						ri.Rank = rankOf(ranked, rep)
						ri.Retries = pointRetries
					}
					return val, true, nil
				}
				err = derr
			}
			if ctx.Err() != nil {
				// The caller went away; this is a cancellation, not a
				// replica failure, and the engine withdraws the entry.
				return nil, true, ctx.Err()
			}
			var re *rejectError
			if errors.As(err, &re) {
				// The replica refused the request outright; the same
				// bytes cannot succeed there, so spill straight to the
				// next-ranked owner — no retry, and no markDown, because
				// an incompatible replica is not a dead one.
				c.rejects.Add(1)
				c.logReject.Do(func() {
					log.Printf("cluster: permanent rejection (first occurrence, key %s): %v", key, re)
				})
				break
			}
			var be *busyError
			if errors.As(err, &be) {
				// The replica shed the batch: healthy but saturated.
				// Honor its hint (within the backoff/cooldown clamp) and
				// retry it, never marking it down; once the budget is
				// spent, spill to the next-ranked owner.
				rep.busy.Add(1)
				c.busy.Add(1)
				if try >= c.retries {
					break
				}
				pointRetries++
				if serr := vclock.Sleep(ctx, c.clock, c.clampHint(be.retryAfter)); serr != nil {
					return nil, true, serr
				}
				continue
			}
			rep.failures.Add(1)
			if try >= c.retries {
				c.markDown(rep)
				break
			}
			c.retried.Add(1)
			pointRetries++
			if serr := vclock.Sleep(ctx, c.clock, c.backoff(try)); serr != nil {
				return nil, true, serr
			}
		}
	}
	c.fallbacks.Add(1)
	c.logFallback.Do(func() {
		log.Printf("cluster: every replica failed or rejected key %s; computing locally (first occurrence)", key)
	})
	return nil, false, nil
}

// backoff returns the jittered wait before retry number try (0-based):
// uniform in [d/2, d] where d = min(base<<try, cap).
func (c *Coordinator) backoff(try int) time.Duration {
	d := c.backoffBase
	for i := 0; i < try && d < c.backoffCap; i++ {
		d *= 2
	}
	if d > c.backoffCap {
		d = c.backoffCap
	}
	if d <= 0 {
		return 0
	}
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d/2) + 1))
	c.rngMu.Unlock()
	return d/2 + j
}

// clampHint bounds a replica's Retry-After hint: at least the backoff
// base (a zero or missing hint must not busy-spin), at most the
// cooldown (a shedding replica should not stall a point longer than a
// dead one would).
func (c *Coordinator) clampHint(d time.Duration) time.Duration {
	if d < c.backoffBase {
		d = c.backoffBase
	}
	if c.cooldown > 0 && d > c.cooldown {
		d = c.cooldown
	}
	return d
}

// markDown puts rep in failure cooldown and starts its health prober,
// which ends the cooldown early if the replica answers /healthz.
func (c *Coordinator) markDown(rep *replica) {
	rep.markDown(c.clock.Now(), c.cooldown)
	c.ensureProbe(rep)
}

// ensureProbe starts rep's probe loop unless one is already running.
func (c *Coordinator) ensureProbe(rep *replica) {
	if c.probeInterval > 0 && rep.probing.CompareAndSwap(false, true) {
		go c.probeLoop(rep)
	}
}

// probeLoop probes rep's /healthz every probeInterval while it is in
// cooldown, clearing the cooldown on the first success. It exits when
// the replica recovers or the cooldown lapses on its own; if the
// replica was re-marked down in the instant the loop was exiting, a
// fresh loop is started so a down replica is never left unprobed.
func (c *Coordinator) probeLoop(rep *replica) {
	defer func() {
		rep.probing.Store(false)
		if rep.down(c.clock.Now()) {
			c.ensureProbe(rep)
		}
	}()
	for {
		<-c.clock.After(c.probeInterval)
		if !rep.down(c.clock.Now()) {
			return
		}
		rep.probes.Add(1)
		if c.probeHealthz(rep) {
			rep.downUntil.Store(0)
			return
		}
	}
}

// probeHealthz reports whether rep currently answers its liveness
// probe.
func (c *Coordinator) probeHealthz(rep *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// rank orders the replicas by rendezvous weight for key, highest first:
// the first entry owns the key, the rest are its failover order. Every
// coordinator computes the same ranking from the peer list alone, and
// removing one replica re-homes only the keys it owned. A replica's
// weight is the splitmix64 finalizer of its base's hash XOR the key's,
// so the weights of different keys are independent: hashing base and
// key as one string would correlate them.
func (c *Coordinator) rank(key string) []*replica {
	type scored struct {
		rep   *replica
		score uint64
	}
	kh := fnv64a(key)
	sc := make([]scored, len(c.replicas))
	for i, rep := range c.replicas {
		sc[i] = scored{rep, mix64(rep.hash ^ kh)}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].score != sc[j].score {
			return sc[i].score > sc[j].score
		}
		return sc[i].rep.base < sc[j].rep.base
	})
	out := make([]*replica, len(sc))
	for i, s := range sc {
		out[i] = s.rep
	}
	return out
}

// fnv64a is the 64-bit FNV-1a hash of s.
func fnv64a(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer: a bijection on uint64 whose every
// output bit depends on every input bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// rankOf returns rep's position in the ranked rendezvous order
// (0 = the key's home replica).
func rankOf(ranked []*replica, rep *replica) int {
	for i, r := range ranked {
		if r == rep {
			return i
		}
	}
	return -1
}

// decodeResult unwraps one wire result into the value a local compute
// of the same point would have returned.
func decodeResult(kind string, res serve.SweepResult) (any, error) {
	switch {
	case kind == "sim" && res.Sim != nil:
		return *res.Sim, nil
	case kind == "structural" && res.Structural != nil:
		return *res.Structural, nil
	}
	return nil, fmt.Errorf("cluster: replica returned %q result for %q point", res.Kind, kind)
}

// batch is one pending /v1/sweep POST to a replica: the points that
// accumulated during the batch window and the rendezvous of their
// waiting callers. Results land in results[i] for points[i]; err, if
// set, applies to every point (and each caller fails over
// independently).
type batch struct {
	ctx     context.Context // cancelled when every caller abandons
	cancel  context.CancelFunc
	points  []serve.SweepPoint
	live    int  // callers still waiting; 0 cancels the POST
	flushed bool // exactly one flusher POSTs (window timer vs full)
	done    chan struct{}
	results []serve.SweepResult
	err     error
}

// enqueue joins (or opens) the pending batch for rep and waits for its
// slot of the response. The POST itself runs on a context detached from
// any single caller: like an engine memo entry, a batch in flight
// serves every caller that joined it, and is cancelled only when all of
// them have gone away.
func (c *Coordinator) enqueue(ctx context.Context, rep *replica, p serve.SweepPoint) (serve.SweepResult, error) {
	c.mu.Lock()
	b := c.batches[rep]
	if b == nil {
		bctx, cancel := context.WithCancel(context.Background())
		b = &batch{ctx: bctx, cancel: cancel, done: make(chan struct{})}
		c.batches[rep] = b
		if c.window > 0 {
			c.clock.AfterFunc(c.window, func() { c.flush(rep, b) })
		} else {
			// No batching: this point's own goroutine flushes as soon
			// as the append below is published (flush reacquires mu).
			go c.flush(rep, b)
		}
	}
	idx := len(b.points)
	b.points = append(b.points, p)
	b.live++
	full := len(b.points) >= c.maxBatch
	if full {
		// Detach immediately so later points open a fresh batch and
		// this one can never outgrow what a replica accepts.
		delete(c.batches, rep)
	}
	c.mu.Unlock()
	if full {
		go c.flush(rep, b)
	}

	select {
	case <-b.done:
		if b.err != nil {
			return serve.SweepResult{}, b.err
		}
		return b.results[idx], nil
	case <-ctx.Done():
		c.mu.Lock()
		b.live--
		abandoned := b.live == 0
		if abandoned && !b.flushed {
			// Every caller left before anything was POSTed: claim the
			// flush so the window timer does nothing, and detach the
			// batch so a later point opens a fresh one instead of
			// joining this dead batch and mistaking its cancelled
			// context for a replica failure.
			b.flushed = true
			if c.batches[rep] == b {
				delete(c.batches, rep)
			}
		}
		c.mu.Unlock()
		if abandoned {
			b.cancel()
		}
		return serve.SweepResult{}, ctx.Err()
	}
}

// flush POSTs b once: it detaches b so later points open a fresh batch,
// snapshots the membership, and distributes the response (or error) to
// every waiter. The window timer and the batch-full path may both call
// it; the flushed flag makes the second call a no-op.
func (c *Coordinator) flush(rep *replica, b *batch) {
	c.mu.Lock()
	if b.flushed {
		c.mu.Unlock()
		return
	}
	b.flushed = true
	if c.batches[rep] == b {
		delete(c.batches, rep)
	}
	points := b.points
	c.mu.Unlock()
	defer b.cancel()
	defer close(b.done)

	c.posts.Add(1)
	results, err := c.post(b.ctx, rep, points)
	if err != nil {
		b.err = err
		return
	}
	b.results = results
	rep.sent.Add(int64(len(points)))
}

// post issues one forwarded /v1/sweep request — bounded by the
// per-post timeout — and decodes the response. A 429 becomes a
// busyError carrying the replica's Retry-After hint.
func (c *Coordinator) post(ctx context.Context, rep *replica, points []serve.SweepPoint) ([]serve.SweepResult, error) {
	if c.postTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.postTimeout)
		defer cancel()
	}
	body, err := json.Marshal(serve.SweepRequest{Points: points})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.ForwardedHeader, "1")
	req.Header.Set(admit.ClientHeader, "coordinator")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return nil, &busyError{replica: rep.addr, retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	if resp.StatusCode >= 400 && resp.StatusCode < 500 {
		// A definitive client-error rejection: retrying the same bytes
		// cannot succeed. When the body is the structured wire-version
		// 400 (serve.WireVersionErrorResponse), surface the version so
		// the mismatch is diagnosable from the coordinator's log alone.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		re := &rejectError{replica: rep.addr, status: resp.Status, msg: strings.TrimSpace(string(msg))}
		var body struct {
			WireVersion int `json:"wire_version"`
		}
		if json.Unmarshal(msg, &body) == nil {
			re.wireVersion = body.WireVersion
		}
		return nil, re
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: %s: %s: %s", rep.addr, resp.Status, strings.TrimSpace(string(msg)))
	}
	var sr serve.SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("cluster: %s: bad sweep response: %v", rep.addr, err)
	}
	if len(sr.Results) != len(points) {
		return nil, fmt.Errorf("cluster: %s: %d results for %d points", rep.addr, len(sr.Results), len(points))
	}
	return sr.Results, nil
}

// parseRetryAfter decodes a Retry-After header: delta-seconds or an
// HTTP date; 0 when absent or malformed (the caller clamps upward).
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		return time.Until(t)
	}
	return 0
}

// Stats is a point-in-time snapshot of a coordinator's routing traffic;
// it is the /statsz "cluster" section of a -peers daemon.
type Stats struct {
	// Peers reports each replica in -peers order.
	Peers []PeerStats `json:"peers" metric:"replica"`
	// Routed counts points answered by a replica; Failovers the subset
	// retried past their first-choice owner after a failure.
	Routed    int64 `json:"routed" metric:"soproc_cluster_routed_points_total" help:"points answered by a replica"`
	Failovers int64 `json:"failovers" metric:"soproc_cluster_failovers_total" help:"points retried past their first-choice owner after a failure"`
	// Retries counts same-replica re-attempts after transient failures
	// (each waits a jittered exponential backoff); Busy counts 429
	// responses honored — the replica was shedding load, so its
	// Retry-After hint was waited out instead of marking it down.
	Retries int64 `json:"retries" metric:"soproc_cluster_retries_total" help:"same-replica re-attempts after transient failures"`
	Busy    int64 `json:"busy" metric:"soproc_cluster_busy_total" help:"429 responses honored (replica shedding load, Retry-After waited out)"`
	// LocalFallbacks counts points computed locally because every
	// replica failed or rejected them; Unroutable those whose payload
	// could not be converted to the wire form at all (always computed
	// locally). With the complete wire encoding both should be zero in
	// a healthy cluster — the first occurrence of each per run is also
	// logged, and CI asserts unroutable == 0 across the figure suite.
	LocalFallbacks int64 `json:"local_fallbacks" metric:"soproc_cluster_local_fallbacks_total" help:"points computed locally because every replica failed or rejected them"`
	Unroutable     int64 `json:"unroutable" metric:"soproc_cluster_unroutable_total" help:"points whose payload has no wire form (always computed locally)"`
	// Rejects counts permanent per-replica rejections (a definitive
	// 4xx other than 429, e.g. a wire_version the replica does not
	// speak): no retry, no markDown, straight to the next owner.
	Rejects int64 `json:"rejects" metric:"soproc_cluster_rejects_total" help:"permanent per-replica rejections (definitive 4xx other than 429)"`
	// Posts counts /v1/sweep requests issued — Routed/Posts is the
	// batching factor.
	Posts int64 `json:"posts" metric:"soproc_cluster_posts_total" help:"/v1/sweep requests issued (routed/posts is the batching factor)"`
}

// PeerStats is one replica's slice of a Stats snapshot.
type PeerStats struct {
	Addr string `json:"addr" metric:"label"`
	// Sent counts points this replica answered; Failures the attempts
	// it failed; Busy the 429s it shed; Probes the /healthz probes
	// issued at it while in cooldown; Down whether it is currently in
	// failure cooldown.
	Sent     int64 `json:"sent" metric:"soproc_cluster_replica_sent_points_total" help:"points each replica answered"`
	Failures int64 `json:"failures" metric:"soproc_cluster_replica_failures_total" help:"failed /v1/sweep attempts per replica"`
	Busy     int64 `json:"busy" metric:"soproc_cluster_replica_busy_total" help:"429 responses shed per replica"`
	Probes   int64 `json:"probes" metric:"soproc_cluster_replica_probes_total" help:"/healthz probes issued per replica while in cooldown"`
	Down     bool  `json:"down" metric:"soproc_cluster_replica_down" help:"1 while the replica is in failure cooldown"`
}

// RegisterMetrics registers the Stats counters on reg as the
// soproc_cluster_* families, read at scrape time.
func (c *Coordinator) RegisterMetrics(reg *metrics.Registry) { metrics.RegisterStats(reg, c.Stats) }

// Stats snapshots the coordinator's routing counters.
func (c *Coordinator) Stats() Stats {
	now := c.clock.Now()
	st := Stats{
		Routed:         c.routed.Load(),
		Failovers:      c.failovers.Load(),
		Retries:        c.retried.Load(),
		Busy:           c.busy.Load(),
		LocalFallbacks: c.fallbacks.Load(),
		Unroutable:     c.unroutable.Load(),
		Rejects:        c.rejects.Load(),
		Posts:          c.posts.Load(),
	}
	for _, rep := range c.replicas {
		st.Peers = append(st.Peers, PeerStats{
			Addr:     rep.addr,
			Sent:     rep.sent.Load(),
			Failures: rep.failures.Load(),
			Busy:     rep.busy.Load(),
			Probes:   rep.probes.Load(),
			Down:     rep.down(now),
		})
	}
	return st
}
