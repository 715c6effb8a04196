package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"scaleout/internal/exp/engine"
	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// keyBase is a valid configuration with every field explicit and
// defaults applied, so a perturbed field is never canonicalized away.
func keyBase(t testing.TB) Config {
	w, ok := workload.ByName(workload.WebSearch)
	if !ok {
		t.Fatal("no Web Search workload")
	}
	net := noc.New(noc.NOCOut, 64)
	net.WireDelta = 0.5
	net.Concentration = 2
	cfg, err := Config{
		Workload: w, CoreType: tech.OoO, Cores: 64, LLCMB: 8, Net: net,
		MemChannels: 5, WarmupCycles: 1000, MeasureCycles: 2000, Seed: 9,
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// structuralBase is keyBase for the structural simulator.
func structuralBase(t testing.TB) StructuralConfig {
	c := keyBase(t)
	cfg, err := StructuralConfig{
		Workload: c.Workload, CoreType: c.CoreType, Cores: c.Cores, LLCMB: c.LLCMB,
		Net: c.Net, MemChannels: c.MemChannels, WarmupCycles: c.WarmupCycles,
		MeasureCycles: c.MeasureCycles, Seed: c.Seed, L1MSHRs: 16,
	}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// keyLeaf is one leaf of a configuration type: the field path and, for
// a per-core-type map, the entry.
type keyLeaf struct {
	name  string
	index []int
	inMap bool
	entry tech.CoreType
}

// keyLeaves walks a configuration type down to its leaves. Structs are
// descended into; a per-core-type map contributes one leaf per core
// type.
func keyLeaves(typ reflect.Type, prefix string, index []int) []keyLeaf {
	var out []keyLeaf
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		idx := append(append([]int(nil), index...), i)
		name := prefix + f.Name
		switch f.Type.Kind() {
		case reflect.Struct:
			out = append(out, keyLeaves(f.Type, name+".", idx)...)
		case reflect.Map:
			for _, ct := range []tech.CoreType{tech.Conventional, tech.OoO, tech.InOrder} {
				out = append(out, keyLeaf{name: name + "[" + ct.String() + "]", index: idx, inMap: true, entry: ct})
			}
		default:
			out = append(out, keyLeaf{name: name, index: idx})
		}
	}
	return out
}

// nudges returns the candidate replacements for a leaf value, smallest
// change first: one ulp either way for a float, ±1 for an integer.
func nudges(t *testing.T, name string, v reflect.Value) []reflect.Value {
	t.Helper()
	var out []any
	switch v.Kind() {
	case reflect.Int:
		out = []any{v.Int() + 1, v.Int() - 1}
	case reflect.Uint64:
		out = []any{v.Uint() + 1, v.Uint() - 1}
	case reflect.Float64:
		f := v.Float()
		for _, g := range []float64{math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			if g != f {
				out = append(out, g)
			}
		}
	case reflect.Bool:
		out = []any{!v.Bool()}
	case reflect.String:
		out = []any{v.String() + "'"}
	default:
		t.Fatalf("%s: no perturbation for kind %v; teach the key coverage test this field", name, v.Kind())
	}
	vals := make([]reflect.Value, len(out))
	for i, x := range out {
		vals[i] = reflect.ValueOf(x).Convert(v.Type())
	}
	return vals
}

// perturb returns a copy of base with one leaf nudged, choosing the
// first nudge that leaves the configuration valid — so the changed key
// it must produce comes from the field itself, not from the marker
// that sets invalid configurations apart.
func perturb[C interface{ Canonical() (C, error) }](t *testing.T, base C, l keyLeaf) C {
	t.Helper()
	field := reflect.ValueOf(&base).Elem().FieldByIndex(l.index)
	cur := field
	if l.inMap {
		cur = field.MapIndex(reflect.ValueOf(l.entry))
	}
	for _, nv := range nudges(t, l.name, cur) {
		cfg := base
		f := reflect.ValueOf(&cfg).Elem().FieldByIndex(l.index)
		if l.inMap {
			m := reflect.MakeMap(f.Type())
			for it := f.MapRange(); it.Next(); {
				m.SetMapIndex(it.Key(), it.Value())
			}
			m.SetMapIndex(reflect.ValueOf(l.entry), nv)
			f.Set(m)
		} else {
			f.Set(nv)
		}
		if _, err := cfg.Canonical(); err == nil {
			return cfg
		}
	}
	t.Fatalf("%s: every perturbation invalidates the configuration", l.name)
	return base
}

// keyCoverage perturbs every leaf of base's type and requires each
// perturbation to change the key.
func keyCoverage[C interface {
	Canonical() (C, error)
	Key() string
}](t *testing.T, base C) {
	leaves := keyLeaves(reflect.TypeOf(base), "", nil)
	if len(leaves) < 30 {
		t.Fatalf("walked only %d leaves", len(leaves))
	}
	want := base.Key()
	for _, l := range leaves {
		if perturb(t, base, l).Key() == want {
			t.Errorf("perturbing %s leaves the key unchanged: the key does not cover it", l.name)
		}
	}
	if base.Key() != want {
		t.Fatal("perturbing a copy changed the base configuration")
	}
}

// TestKeyCoversEveryField: every leaf of Config and StructuralConfig —
// each workload field, each per-core-type map entry, each interconnect
// field — is part of the memo key. A new field the key does not cover
// would let two different simulations share one memo entry.
func TestKeyCoversEveryField(t *testing.T) {
	t.Run("sim", func(t *testing.T) { keyCoverage(t, keyBase(t)) })
	t.Run("structural", func(t *testing.T) { keyCoverage(t, structuralBase(t)) })
}

// TestKeyCanonical: configurations equal after Canonical share a key —
// explicit defaults against zero values, and workload maps filled in
// different orders.
func TestKeyCanonical(t *testing.T) {
	w, _ := workload.ByName(workload.DataServing)
	implicit := Config{Workload: w, CoreType: tech.InOrder, Cores: 32, LLCMB: 4}
	explicit := Config{
		Workload: w, CoreType: tech.InOrder, Cores: 32, LLCMB: 4,
		Net: noc.New(noc.Crossbar, 32), MemChannels: 3,
		WarmupCycles: 20000, MeasureCycles: 50000, Seed: 1,
	}
	if implicit.Key() != explicit.Key() {
		t.Error("explicit defaults change the sim key")
	}
	simp := StructuralConfig{Workload: w, CoreType: tech.InOrder, Cores: 32, LLCMB: 4}
	sexp := StructuralConfig{
		Workload: w, CoreType: tech.InOrder, Cores: 32, LLCMB: 4,
		Net: noc.New(noc.Crossbar, 32), MemChannels: 3,
		WarmupCycles: 60000, MeasureCycles: 50000, Seed: 1, L1MSHRs: 32,
	}
	if simp.Key() != sexp.Key() {
		t.Error("explicit defaults change the structural key")
	}

	order := []tech.CoreType{tech.Conventional, tech.OoO, tech.InOrder}
	refill := func(m map[tech.CoreType]float64, reverse bool) map[tech.CoreType]float64 {
		out := make(map[tech.CoreType]float64)
		for i := range order {
			ct := order[i]
			if reverse {
				ct = order[len(order)-1-i]
			}
			out[ct] = m[ct]
		}
		return out
	}
	a, b := w, w
	a.BaseIPC, b.BaseIPC = refill(w.BaseIPC, false), refill(w.BaseIPC, true)
	a.MLP, b.MLP = refill(w.MLP, false), refill(w.MLP, true)
	a.LLCOverlap, b.LLCOverlap = refill(w.LLCOverlap, false), refill(w.LLCOverlap, true)
	ca, cb := implicit, implicit
	ca.Workload, cb.Workload = a, b
	if ca.Key() != cb.Key() || ca.Key() != implicit.Key() {
		t.Error("workload map fill order changes the key")
	}
}

// TestKeyKindsDisjoint: a sim and a structural configuration built from
// the same fields never share a key, nor a hash.
func TestKeyKindsDisjoint(t *testing.T) {
	ks, kst := keyBase(t).Key(), structuralBase(t).Key()
	if !strings.HasPrefix(ks, "sim:") || !strings.HasPrefix(kst, "structural:") {
		t.Fatalf("keys lack their kind prefix: %s, %s", ks, kst)
	}
	if strings.TrimPrefix(ks, "sim:") == strings.TrimPrefix(kst, "structural:") {
		t.Fatal("sim and structural configurations share a hash")
	}
}

// TestKeyInvalid: an invalid configuration keys deterministically, never
// shares a key with a valid configuration — not even the same fields
// laid out as canonical — and running it under its key still returns
// its validation error, memoized.
func TestKeyInvalid(t *testing.T) {
	invalid := keyBase(t)
	invalid.Cores = 0
	k := invalid.Key()
	if invalid.Key() != k {
		t.Fatal("invalid key is not deterministic")
	}
	if k == configKey(invalid.wireFields(), true) {
		t.Fatal("invalid key equals the key of the same fields marked canonical")
	}

	e := engine.New(1)
	var first error
	for i := 0; i < 2; i++ {
		_, err := e.Do(context.Background(), k, func() (any, error) { return Run(invalid) })
		if err == nil {
			t.Fatalf("run %d of an invalid config succeeded", i)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("memoized error %q differs from the first %q", err, first)
		}
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want one miss then one memo hit", st)
	}
}

// TestKeyGolden pins two probe keys. The key layout is a persistent
// format — the result store is keyed by it —
// so an accidental encoding change, which would turn every user's store
// cold, must fail here. Change these strings only on purpose, and say
// so in the change log.
func TestKeyGolden(t *testing.T) {
	ws, _ := workload.ByName(workload.WebSearch)
	ds, _ := workload.ByName(workload.DataServing)
	simProbe := Config{Workload: ws, CoreType: tech.OoO, Cores: 16, LLCMB: 4}
	structProbe := StructuralConfig{Workload: ds, CoreType: tech.InOrder, Cores: 64, LLCMB: 8, Net: noc.New(noc.Mesh, 64)}
	for _, g := range []struct{ got, want string }{
		{simProbe.Key(), "sim:b3d02adaccdb89b05b2e11dd33237175b0cfd260176372d62af86ed77ef192f0"},
		{structProbe.Key(), "structural:aefcce323a4876555b8d62fde4ba0b34b437c3b2055de48fe4781b5ccee8c1c5"},
	} {
		if g.got != g.want {
			t.Errorf("probe key = %s, want %s", g.got, g.want)
		}
	}
}

// Benchmark sinks keep the measured calls from being optimized away.
var (
	keySink     string
	payloadSink any
)

// BenchmarkKey measures one memo key derivation.
func BenchmarkKey(b *testing.B) {
	cfg := keyBase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = cfg.Key()
	}
}

// BenchmarkWirePayload measures building one route payload, round-trip
// key check included.
func BenchmarkWirePayload(b *testing.B) {
	cfg := keyBase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloadSink = cfg.WirePayload()
	}
}
