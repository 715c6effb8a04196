package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// randNet draws one interconnect across all five kinds with randomly
// perturbed WireDelta, Concentration, ExpressLinks, TileEdge, and
// LinkBits — the fields the old symbolic wire form could not carry.
func randNet(rng *rand.Rand, cores int) noc.Config {
	kinds := []noc.Kind{noc.Ideal, noc.Crossbar, noc.Mesh, noc.FlattenedButterfly, noc.NOCOut}
	net := noc.New(kinds[rng.Intn(len(kinds))], cores)
	if rng.Intn(2) == 0 {
		net.WireDelta = -3 + 6*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		net.TileEdge = 1 + 2*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		net.LinkBits = 32 << rng.Intn(4)
	}
	if net.Kind == noc.NOCOut {
		if rng.Intn(2) == 0 {
			net.Concentration = 1 + rng.Intn(4)
		}
		if rng.Intn(2) == 0 {
			net.ExpressLinks = true
		}
		if rng.Intn(2) == 0 {
			net.LLCTiles = 4 << rng.Intn(3)
		}
	}
	return net
}

// randWorkload perturbs a suite workload into a valid non-suite spec.
func randWorkload(rng *rand.Rand) workload.Workload {
	names := workload.Names()
	w, _ := workload.ByName(names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		return w
	}
	w.Name = w.Name + " (perturbed)"
	w.APKI *= 0.5 + rng.Float64()
	w.MPKIFloor *= rng.Float64()
	w.MPKI1 = w.MPKIFloor + (w.MPKI1-w.MPKIFloor)*(0.5+rng.Float64())
	w.Alpha = 0.1 + 1.5*rng.Float64()
	w.SnoopPct *= rng.Float64() * 2
	w.SharedFrac = rng.Float64() * 0.1
	// Each per-core value is drawn in a fixed order, so a walk from one
	// seed yields one corpus. Base IPC only falls, staying within each
	// core's width; MLP stays at least 1 and LLC overlap in (0, 1].
	perCore(&w.BaseIPC, func(v float64) float64 { return v * (0.5 + 0.5*rng.Float64()) })
	perCore(&w.MLP, func(v float64) float64 { return 1 + (v-1)*2*rng.Float64() })
	perCore(&w.LLCOverlap, func(v float64) float64 { return v * (0.5 + 0.5*rng.Float64()) })
	return w
}

// perCore replaces each core type's value in p with f of it, in enum
// order.
func perCore(p *workload.PerCore, f func(float64) float64) {
	p.Conventional = f(p.Conventional)
	p.OoO = f(p.OoO)
	p.InOrder = f(p.InOrder)
}

// wireSample is one configuration of the walk: a Config or a
// StructuralConfig.
type wireSample interface {
	Key() string
	MarshalWire() ([]byte, error)
}

// wireWalk draws n randomized configurations from seed — the shared
// walk behind the round-trip property test and FuzzUnmarshalWire's seed
// corpus (both walk it from seed 7). Even draws are Configs with a
// random DisableSWScaling, odd draws StructuralConfigs.
func wireWalk(seed int64, n int) []wireSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]wireSample, n)
	for i := range out {
		base := randBase(rng)
		if i%2 == 0 {
			base.DisableSWScaling = rng.Intn(2) == 0
			out[i] = base
		} else {
			out[i] = randStructural(rng, base)
		}
	}
	return out
}

// randBase draws one randomized base configuration.
func randBase(rng *rand.Rand) Config {
	cores := 1 << rng.Intn(8)
	base := Config{
		Workload: randWorkload(rng),
		CoreType: tech.CoreType(rng.Intn(3)),
		Cores:    cores,
		LLCMB:    0.5 * float64(1+rng.Intn(32)),
		Net:      randNet(rng, cores),
	}
	if rng.Intn(2) == 0 {
		base.MemChannels = 1 + rng.Intn(8)
	}
	if rng.Intn(2) == 0 {
		base.WarmupCycles = 1000 * (1 + rng.Intn(50))
	}
	if rng.Intn(2) == 0 {
		base.MeasureCycles = 1000 * (1 + rng.Intn(100))
	}
	if rng.Intn(2) == 0 {
		base.Seed = rng.Uint64()
	}
	return base
}

// randStructural reshapes a base configuration into the structural
// variant the property test uses for odd samples.
func randStructural(rng *rand.Rand, base Config) StructuralConfig {
	cfg := StructuralConfig{
		Workload: base.Workload, CoreType: base.CoreType, Cores: base.Cores,
		LLCMB: base.LLCMB, Net: base.Net, MemChannels: base.MemChannels,
		WarmupCycles: base.WarmupCycles, MeasureCycles: base.MeasureCycles,
		Seed: base.Seed,
	}
	if rng.Intn(2) == 0 {
		cfg.L1MSHRs = 4 << rng.Intn(5)
	}
	return cfg
}

// TestWireRoundTripRandomized is the wire form's property test: for
// randomized configurations across every noc kind — perturbed
// WireDelta/Concentration/ExpressLinks/TileEdge/LinkBits and mutated
// non-suite workloads — UnmarshalWire(MarshalWire(c)) must re-derive
// exactly c's memo key. This is the invariant that keeps cluster output
// byte-identical to single-node output for every representable point.
func TestWireRoundTripRandomized(t *testing.T) {
	for i, cfg := range wireWalk(7, 300) {
		data, err := cfg.MarshalWire()
		if err != nil {
			t.Fatalf("sample %d: MarshalWire: %v", i, err)
		}
		wc, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("sample %d: UnmarshalWire: %v", i, err)
		}
		dec, err := wc.Decode()
		if err != nil {
			t.Fatalf("sample %d: Decode: %v", i, err)
		}
		if reflect.TypeOf(dec) != reflect.TypeOf(cfg) {
			t.Fatalf("sample %d: Decode returned %T for a %T", i, dec, cfg)
		}
		if got := dec.(wireSample).Key(); got != cfg.Key() {
			t.Fatalf("sample %d: round-trip key mismatch:\n got %s\nwant %s", i, got, cfg.Key())
		}
	}
}

// TestWireWalkReproducible: two walks from one seed draw the same
// configurations, so the property test and the fuzz seed corpus are
// the same on every run; and the walk perturbs every per-core
// parameter of some workload.
func TestWireWalkReproducible(t *testing.T) {
	a, b := wireWalk(7, 300), wireWalk(7, 300)
	perturbed := map[string]bool{}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("sample %d: two walks from seed 7 differ:\n%s\n%s", i, a[i].Key(), b[i].Key())
		}
		var w workload.Workload
		switch c := a[i].(type) {
		case Config:
			w = c.Workload
		case StructuralConfig:
			w = c.Workload
		}
		suite, _ := workload.ByName(strings.TrimSuffix(w.Name, " (perturbed)"))
		perturbed["BaseIPC"] = perturbed["BaseIPC"] || w.BaseIPC != suite.BaseIPC
		perturbed["MLP"] = perturbed["MLP"] || w.MLP != suite.MLP
		perturbed["LLCOverlap"] = perturbed["LLCOverlap"] || w.LLCOverlap != suite.LLCOverlap
	}
	for _, f := range []string{"BaseIPC", "MLP", "LLCOverlap"} {
		if !perturbed[f] {
			t.Errorf("no sample perturbs %s", f)
		}
	}
}

// TestWireVersionRejected: a wire config with any other version is
// rejected with a typed *WireVersionError before the body is even
// looked at — fields from a future schema must not fail as "unknown
// field" ahead of the version check.
func TestWireVersionRejected(t *testing.T) {
	_, err := UnmarshalWire([]byte(`{"wire_version": 99, "field_from_the_future": true}`))
	var ve *WireVersionError
	if !errors.As(err, &ve) || ve.Version != 99 {
		t.Fatalf("UnmarshalWire = %v, want *WireVersionError{99}", err)
	}
	if _, err := UnmarshalWire([]byte(`{"kind": "sim"}`)); err == nil {
		t.Fatal("UnmarshalWire accepted a config without wire_version")
	}
}

// TestWireRejectsInvalid: decode validates with the same rules that
// gate locally constructed points.
func TestWireRejectsInvalid(t *testing.T) {
	w, _ := workload.ByName(workload.Names()[0])
	cfg := Config{Workload: w, CoreType: tech.OoO, Cores: 4, LLCMB: 2}
	wc, err := cfg.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}

	bad := wc
	bad.Workload.Alpha = 17 // outside Validate's (0, 2]
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted an out-of-range workload")
	}

	bad = wc
	bad.Core = "quantum"
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted an unknown core token")
	}

	bad = wc
	bad.Net.Kind = "tokenring"
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted an unknown net kind")
	}

	bad = wc
	bad.Kind = "analytic"
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted an unknown simulator kind")
	}

	bad = wc
	bad.L1MSHRs = 8 // structural-only field on a sim config
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted l1_mshrs on a sim config")
	}

	invalid := cfg
	invalid.Cores = 0
	if _, err := invalid.Wire(); err == nil {
		t.Fatal("Wire accepted an invalid config")
	}
	if p, ok := invalid.WirePayload().(Unroutable); !ok || p.Err == nil {
		t.Fatalf("WirePayload = %#v, want an Unroutable marker", invalid.WirePayload())
	}
}

// TestWireCarriesFormerlyUnroutable: the exact shapes the legacy
// symbolic wire form declined — WireDelta meshes (ch4's scale-limited
// pods), express-linked concentrated NOC-Out, custom tile edges,
// perturbed workloads — must now round-trip to the same key.
func TestWireCarriesFormerlyUnroutable(t *testing.T) {
	w, _ := workload.ByName(workload.Names()[0])

	mesh := noc.New(noc.Mesh, 64)
	mesh.WireDelta = -0.25 * mesh.OneWayLatency()

	nocOut := noc.New(noc.NOCOut, 128)
	nocOut.Concentration = 2
	nocOut.ExpressLinks = true

	edge := noc.New(noc.FlattenedButterfly, 16)
	edge.TileEdge = 2.5

	perturbed := w
	perturbed.APKI *= 1.5

	for name, cfg := range map[string]Config{
		"wire-delta":        {Workload: w, CoreType: tech.OoO, Cores: 64, LLCMB: 4, Net: mesh},
		"nocout-scaled":     {Workload: w, CoreType: tech.InOrder, Cores: 128, LLCMB: 8, Net: nocOut},
		"tile-edge":         {Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4, Net: edge},
		"non-suite":         {Workload: perturbed, CoreType: tech.OoO, Cores: 16, LLCMB: 4},
		"conventional-core": {Workload: w, CoreType: tech.Conventional, Cores: 4, LLCMB: 2},
	} {
		data, err := cfg.MarshalWire()
		if err != nil {
			t.Fatalf("%s: MarshalWire: %v", name, err)
		}
		wc, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("%s: UnmarshalWire: %v", name, err)
		}
		dec, err := wc.Decode()
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if dec.(Config).Key() != cfg.Key() {
			t.Fatalf("%s: round-trip key mismatch", name)
		}
	}
}
