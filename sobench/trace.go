package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scaleout/internal/exp"
	"scaleout/internal/exp/engine"
	"scaleout/internal/sim"
	"scaleout/internal/store"
)

// The traced run records spans from this package's own wrappers around
// each layer's public surface — an engine.Store, an exp.Route, an
// http.RoundTripper, http.Handlers and an exp.Tier — so the program
// itself is unchanged. Spans stay in memory and are written out at the
// end as Chrome trace-event JSON (loadable in Perfetto).

// span is one timed call at a layer boundary.
type span struct {
	Name   string
	Track  string // display lane group, e.g. "coord" or "sim"
	ID     uint64
	Parent uint64 // 0 = root
	Start  time.Duration
	End    time.Duration
	Op     int           // operation (pass or request) index
	Kind   string        // computes: "sim" | "structural"; posts: replica host
	Bytes  int64         // request bytes (handlers, posts)
	RBytes int64         // response bytes
	Status int           // HTTP status (handlers, posts)
	Cycles int64         // simulated core-cycles (computes)
	Wait   time.Duration // worker-slot queue wait (engine decisions)
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans; safe for concurrent use.
type recorder struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }
func (r *recorder) newID() uint64      { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// since returns the spans recorded at or after t.
func (r *recorder) since(t time.Duration) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Start >= t {
			out = append(out, s)
		}
	}
	return out
}

type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// spanHeader carries the caller's span ID across a loopback HTTP hop.
const spanHeader = "X-Sobench-Span"

// --- suite passes ---------------------------------------------------

// passTrace is one traced suite pass: the figures.run span every
// engine-side span of the pass hangs under.
type passTrace struct {
	rec *recorder
	op  int
	run uint64 // figures.run span ID
}

// timedStore is an engine.Store that times every Load and Save.
type timedStore struct {
	st *store.Store
	pt *passTrace
}

func (s timedStore) Load(key string) (any, bool) {
	start := s.pt.rec.now()
	v, ok := s.st.Load(key)
	s.pt.rec.add(span{Name: "store.load", Track: "store", Parent: s.pt.run, Op: s.pt.op, Start: start, End: s.pt.rec.now()})
	return v, ok
}

func (s timedStore) Save(key string, val any) {
	start := s.pt.rec.now()
	s.st.Save(key, val)
	s.pt.rec.add(span{Name: "store.save", Track: "store", Parent: s.pt.run, Op: s.pt.op, Start: start, End: s.pt.rec.now()})
}

// decisionHook records each engine decision as a span ending now.
func (pt *passTrace) decisionHook(d engine.Decision) {
	if d.Source == "evicted" {
		return
	}
	end := pt.rec.now()
	pt.rec.add(span{Name: "engine." + d.Source, Track: "engine", Parent: pt.run, Op: pt.op,
		Start: end - d.Latency, End: end, Wait: d.QueueWait})
}

// timingTier is an exp.Tier that resolves the figures' batches the
// way the untiered path does — exp.Points over SimPoint and
// StructuralPoint on the context's engine — but through delegating
// points whose Compute is timed. Each batch is a resolution span under
// the pass's figures.run span.
type timingTier struct{ pt *passTrace }

func (t timingTier) Sims(ctx context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	return timedBatch(ctx, t.pt, "sim", cfgs, func(c sim.Config) exp.Point[sim.Result] { return exp.SimPoint{Config: c} }, simCycles)
}

func (t timingTier) Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	return timedBatch(ctx, t.pt, "structural", cfgs, func(c sim.StructuralConfig) exp.Point[sim.StructuralResult] {
		return exp.StructuralPoint{Config: c}
	}, structuralCycles)
}

func timedBatch[R, C any](ctx context.Context, pt *passTrace, kind string, cfgs []C, point func(C) exp.Point[R], cycles func(C) int64) ([]R, error) {
	id := pt.rec.newID()
	start := pt.rec.now()
	pts := make([]exp.Point[R], len(cfgs))
	for i, c := range cfgs {
		pts[i] = timedPoint[R]{p: point(c), pt: pt, batch: id, kind: kind, cycles: cycles(c)}
	}
	res, err := exp.Points(ctx, exp.FromContext(ctx), pts)
	pt.rec.add(span{Name: "figures.resolve", Track: "figures", ID: id, Parent: pt.run, Op: pt.op, Start: start, End: pt.rec.now(), Kind: kind})
	return res, err
}

// timedPoint delegates Key and RoutePayload and times Compute.
type timedPoint[R any] struct {
	p      exp.Point[R]
	pt     *passTrace
	batch  uint64
	kind   string
	cycles int64
}

func (p timedPoint[R]) Key() string { return p.p.Key() }

func (p timedPoint[R]) RoutePayload() any {
	if rp, ok := p.p.(exp.Routable); ok {
		return rp.RoutePayload()
	}
	return nil
}

func (p timedPoint[R]) Compute() (R, error) {
	start := p.pt.rec.now()
	r, err := p.p.Compute()
	p.pt.rec.add(span{Name: "sim.compute", Track: "sim", Parent: p.batch, Op: p.pt.op, Start: start, End: p.pt.rec.now(),
		Kind: p.kind, Cycles: p.cycles})
	return r, err
}

// simCycles is the core-cycles a statistical point simulates.
func simCycles(c sim.Config) int64 {
	cc, err := c.Canonical()
	if err != nil {
		return 0
	}
	return int64(cc.Cores) * int64(cc.WarmupCycles+cc.MeasureCycles)
}

// structuralCycles is the core-cycles a structural point simulates.
func structuralCycles(c sim.StructuralConfig) int64 {
	cc, err := c.Canonical()
	if err != nil {
		return 0
	}
	return int64(cc.Cores) * int64(cc.WarmupCycles+cc.MeasureCycles)
}

// --- serving nodes ----------------------------------------------------

// timedHandler wraps a node's handler: it records one span per request
// under the span named by the caller's header (outer handlers) or the
// enclosing handler's context (inner handlers), and passes its own span
// ID on in the request context.
func timedHandler(rec *recorder, name, track string, outer bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent uint64
		if outer {
			parent, _ = strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		} else {
			parent = spanFrom(r.Context())
		}
		id := rec.newID()
		start := rec.now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(withSpan(r.Context(), id)))
		rec.add(span{Name: name, Track: track, ID: id, Parent: parent, Start: start, End: rec.now(),
			Kind: r.URL.Path, Bytes: r.ContentLength, RBytes: sw.bytes, Status: sw.status})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// timedRoute wraps the coordinator's Route. The replica that answered
// comes from the engine's RouteInfo slot, present because serving
// nodes always observe decisions.
func timedRoute(rec *recorder, next exp.Route) exp.Route {
	return func(ctx context.Context, key string, payload any) (any, bool, error) {
		start := rec.now()
		v, handled, err := next(ctx, key, payload)
		s := span{Name: "cluster.route", Track: "cluster", Parent: spanFrom(ctx), Start: start, End: rec.now()}
		if ri := engine.RouteInfoFrom(ctx); ri != nil {
			s.Kind = ri.Replica
		}
		rec.add(s)
		return v, handled, err
	}
}

// timedTransport is the coordinator's RoundTripper in a traced run: it
// times each replica POST until its body is read and passes the post's
// span ID to the replica.
type timedTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	s := span{Name: "cluster.post", Track: "cluster.post", ID: id, Start: t.rec.now(), Kind: req.URL.Host, Bytes: req.ContentLength}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// timedBody ends its post's span at EOF or Close, whichever is first.
type timedBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	done bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.RBytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *timedBody) finish() {
	if !b.done {
		b.done = true
		b.s.End = b.rec.now()
		b.rec.add(b.s)
	}
}

// --- analysis and output ----------------------------------------------

// covered returns how much of p's interval the spans in kids cover.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfTimes maps span ID to its self time: its duration minus the part
// its child spans cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// writeChrome writes spans as Chrome trace-event JSON. Overlapping
// spans of one track are spread over numbered lanes so every lane
// nests cleanly.
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	self := selfTimes(spans)
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End > sorted[j].End
	})

	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(e event) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		enc.Encode(e)
	}
	lanes := map[string][]time.Duration{} // track -> end of each lane's last span
	tids := map[string]int{}
	for _, s := range sorted {
		ends := lanes[s.Track]
		lane := -1
		for i, e := range ends {
			if s.Start >= e {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(ends)
			ends = append(ends, 0)
		}
		ends[lane] = s.End
		lanes[s.Track] = ends
		name := fmt.Sprintf("%s #%d", s.Track, lane)
		tid, ok := tids[name]
		if !ok {
			tid = len(tids) + 1
			tids[name] = tid
			emit(event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "self_us": us(self[s.ID])}
		if s.Kind != "" {
			args["kind"] = s.Kind
		}
		if s.Status != 0 {
			args["status"] = s.Status
		}
		if s.Bytes > 0 || s.RBytes > 0 {
			args["bytes"], args["resp_bytes"] = s.Bytes, s.RBytes
		}
		emit(event{Name: s.Name, Cat: s.Track, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: tid, Args: args})
	}
	io.WriteString(w, "]}\n")
	return w.Flush()
}
