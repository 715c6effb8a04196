package noc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// The thesis's Table 3.1 crossbar latencies.
func TestCrossbarLatencyTable(t *testing.T) {
	cases := map[int]float64{1: 4, 4: 4, 8: 4, 16: 5, 32: 7, 64: 11, 128: 19, 256: 35}
	for n, want := range cases {
		if got := CrossbarLatency(n); got != want {
			t.Errorf("CrossbarLatency(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestOneWayLatencyValues(t *testing.T) {
	if l := New(Ideal, 64).OneWayLatency(); l != 4 {
		t.Fatalf("ideal latency %v, want 4", l)
	}
	// Mesh, 64 tiles: 3 cycles/hop x mean Manhattan distance on 8x8.
	want := 3 * (2.0 / 3.0) * (8 - 1.0/8)
	if l := New(Mesh, 64).OneWayLatency(); math.Abs(l-want) > 1e-9 {
		t.Fatalf("mesh-64 latency %v, want %v", l, want)
	}
}

// The Chapter-4 latency ordering at 64 cores: mesh slowest; the flattened
// butterfly and NOC-Out close together and far faster.
func TestLatencyOrdering64(t *testing.T) {
	mesh := New(Mesh, 64).OneWayLatency()
	fb := New(FlattenedButterfly, 64).OneWayLatency()
	no := New(NOCOut, 64).OneWayLatency()
	if !(fb < mesh && no < mesh) {
		t.Fatalf("ordering violated: mesh %v fbfly %v nocout %v", mesh, fb, no)
	}
	if math.Abs(fb-no) > 3 {
		t.Fatalf("fbfly %v and nocout %v should be close (Section 4.4.1)", fb, no)
	}
}

// NOC-Out's adjacency benefit: with only 16 active cores the trees are a
// single row, cutting latency (Section 4.3.3).
func TestNOCOutAdjacency(t *testing.T) {
	full := New(NOCOut, 64).OneWayLatency()
	adj := New(NOCOut, 16).OneWayLatency()
	if adj >= full {
		t.Fatalf("16-core NOC-Out latency %v not below 64-core %v", adj, full)
	}
}

func TestLatencyMonotonicInCores(t *testing.T) {
	for _, kind := range []Kind{Crossbar, Mesh, FlattenedButterfly, NOCOut} {
		prev := 0.0
		for c := 4; c <= 256; c *= 2 {
			l := New(kind, c).OneWayLatency()
			if l < prev-1e-9 {
				t.Errorf("%v: latency fell from %v to %v at %d cores", kind, prev, l, c)
			}
			prev = l
		}
	}
}

func TestSerialization(t *testing.T) {
	c := New(Mesh, 64) // 128-bit links
	if s := c.SerializationCycles(8); s != 0 {
		t.Fatalf("8B request serialization %v, want 0", s)
	}
	if s := c.SerializationCycles(72); s != 4 {
		t.Fatalf("72B reply at 128b: %v, want 4 (5 flits)", s)
	}
	narrow := c.WithLinkBits(16)
	if s := narrow.SerializationCycles(72); s != 35 {
		t.Fatalf("72B at 16b: %v, want 35", s)
	}
	if a, b := c.AccessLatency(), c.OneWayLatency()+4; math.Abs(a-b) > 1e-9 {
		t.Fatalf("access latency %v, want %v", a, b)
	}
}

func TestWireDelta(t *testing.T) {
	c := New(Crossbar, 32)
	base := c.OneWayLatency()
	c.WireDelta = -2
	if got := c.OneWayLatency(); got != base-2 {
		t.Fatalf("wire delta: %v, want %v", got, base-2)
	}
	c.WireDelta = -100
	if got := c.OneWayLatency(); got != 2 {
		t.Fatalf("latency floor: %v, want 2", got)
	}
}

// Figure 4.7 calibration: total NoC areas near the thesis's values for
// the 64-core pod at 128-bit links.
func TestAreaCalibration(t *testing.T) {
	mesh := New(Mesh, 64).Area().Total()
	fb := New(FlattenedButterfly, 64).Area().Total()
	no := New(NOCOut, 64).Area().Total()
	if mesh < 2.8 || mesh > 4.2 {
		t.Errorf("mesh area %v, thesis ~3.5mm2", mesh)
	}
	if fb < 18 || fb > 28 {
		t.Errorf("fbfly area %v, thesis ~23mm2", fb)
	}
	if no < 2.0 || no > 3.0 {
		t.Errorf("NOC-Out area %v, thesis ~2.5mm2", no)
	}
	if !(no < mesh && mesh < fb) {
		t.Errorf("area ordering violated: %v %v %v", no, mesh, fb)
	}
	// NOC-Out saves ~28% vs mesh and ~10x vs the flattened butterfly.
	if r := no / mesh; r < 0.55 || r > 0.9 {
		t.Errorf("NOC-Out/mesh area ratio %v, thesis ~0.72", r)
	}
	if r := fb / no; r < 6 || r > 12 {
		t.Errorf("fbfly/NOC-Out area ratio %v, thesis ~10", r)
	}
}

func TestAreaBreakdownPositive(t *testing.T) {
	for _, kind := range []Kind{Crossbar, Mesh, FlattenedButterfly, NOCOut} {
		a := New(kind, 64).Area()
		if a.LinksMM2 < 0 || a.BuffersMM2 < 0 || a.CrossbarMM2 < 0 {
			t.Errorf("%v: negative area component %+v", kind, a)
		}
		if a.Total() <= 0 {
			t.Errorf("%v: non-positive total", kind)
		}
	}
	if a := New(Ideal, 64).Area(); a.Total() != 0 {
		t.Error("ideal interconnect should have no modelled area")
	}
}

// Area scales (sub)linearly with link width.
func TestAreaScalesWithWidth(t *testing.T) {
	f := func(bits8 uint8) bool {
		bits := 8 * (1 + int(bits8)%32)
		wide := New(Mesh, 64).WithLinkBits(bits * 2).Area().Total()
		narrow := New(Mesh, 64).WithLinkBits(bits).Area().Total()
		return wide > narrow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Section 4.4.3: shrinking the flattened butterfly to NOC-Out's budget
// cuts its links by about a factor of seven.
func TestLinkBitsForArea(t *testing.T) {
	budget := New(NOCOut, 64).Area().Total()
	fbBits := New(FlattenedButterfly, 64).LinkBitsForArea(budget)
	if fbBits > DefaultLinkBits/5 || fbBits < 8 {
		t.Fatalf("fbfly narrowed to %d bits; thesis ~1/7 of 128", fbBits)
	}
	meshBits := New(Mesh, 64).LinkBitsForArea(budget)
	if meshBits <= fbBits {
		t.Fatal("mesh should keep wider links than fbfly at equal area")
	}
	if got := New(Mesh, 64).WithLinkBits(meshBits).Area().Total(); got > budget {
		t.Fatalf("area %v exceeds budget %v at returned width", got, budget)
	}
}

// Section 4.4.4 calibration: all NoCs below 2W at scale-out load,
// link-dominated, with NOC-Out the most efficient.
func TestPowerCalibration(t *testing.T) {
	const aps = 2.5e9 // LLC accesses/s of a busy 64-core pod
	mesh := New(Mesh, 64).PowerW(aps)
	fb := New(FlattenedButterfly, 64).PowerW(aps)
	no := New(NOCOut, 64).PowerW(aps)
	for _, p := range []PowerBreakdown{mesh, fb, no} {
		if p.Total() <= 0 || p.Total() >= 2.5 {
			t.Fatalf("NoC power %v outside (0, 2.5W)", p.Total())
		}
		// Links carry most of the energy (Section 4.4.4); the mesh's
		// per-hop buffering brings its routers close to parity.
		if p.RoutersW > 1.4*p.LinksW {
			t.Fatalf("routers implausibly dominant: %+v", p)
		}
	}
	if fb.LinksW <= fb.RoutersW || no.LinksW <= no.RoutersW {
		t.Fatalf("links should dominate low-diameter NoCs: fb %+v no %+v", fb, no)
	}
	if !(no.Total() < fb.Total() && fb.Total() < mesh.Total()) {
		t.Fatalf("power ordering: nocout %v fbfly %v mesh %v (thesis 1.3/1.6/1.8)",
			no.Total(), fb.Total(), mesh.Total())
	}
}

func TestPowerLinearInLoad(t *testing.T) {
	c := New(Mesh, 64)
	p1, p2 := c.PowerW(1e9).Total(), c.PowerW(2e9).Total()
	if math.Abs(p2-2*p1) > 1e-12 {
		t.Fatalf("power not linear in load: %v vs 2x%v", p2, p1)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{Ideal: "Ideal", Crossbar: "Crossbar", Mesh: "Mesh",
		FlattenedButterfly: "Flattened Butterfly", NOCOut: "NOC-Out"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: %q", k, k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind unnamed")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{Kind: Mesh, Cores: 16}
	if c.linkBits() != DefaultLinkBits || c.tileEdge() != 1.83 || c.llcTiles() != 8 {
		t.Fatal("zero-value defaults")
	}
	if New(Crossbar, 8).LinkBits != 256 {
		t.Fatal("crossbar should default to a wide datapath")
	}
}

// Section 4.5.1: concentration and express links keep large NOC-Out pods
// near the 64-core latency at reduced (concentration) or bounded
// (express) area.
func TestNOCOutScalability(t *testing.T) {
	base64 := New(NOCOut, 64).OneWayLatency()
	base256 := New(NOCOut, 256)
	if base256.OneWayLatency() <= base64 {
		t.Fatal("256-core trees should be slower without scaling mechanisms")
	}
	conc := base256
	conc.Concentration = 2
	if conc.OneWayLatency() >= base256.OneWayLatency() {
		t.Fatalf("concentration did not shorten the trees: %v vs %v",
			conc.OneWayLatency(), base256.OneWayLatency())
	}
	if conc.Area().Total() >= base256.Area().Total() {
		t.Fatal("concentration should reduce tree node area")
	}
	expr := base256
	expr.ExpressLinks = true
	if expr.OneWayLatency() >= base256.OneWayLatency() {
		t.Fatal("express links did not shorten tall trees")
	}
	if expr.Area().Total() <= base256.Area().Total() {
		t.Fatal("express links are not free: channel area must grow")
	}
	// Express links are a no-op on short trees.
	short := New(NOCOut, 64)
	short.ExpressLinks = true
	if short.OneWayLatency() != New(NOCOut, 64).OneWayLatency() {
		t.Fatal("express links changed a short tree")
	}
}

// ReplySerializationCycles is the data-reply packet's streaming cost —
// the one the simulator's reply path uses — and must equal serializing
// a line plus its header at the configured link width.
func TestReplySerializationCycles(t *testing.T) {
	for _, c := range []Config{
		New(Mesh, 64),                         // 128-bit links
		New(Crossbar, 16),                     // 256-bit datapath
		New(Mesh, 64).WithLinkBits(64),        // narrowed links
		{Kind: FlattenedButterfly, Cores: 64}, // zero LinkBits: defaulted
	} {
		if got, want := c.ReplySerializationCycles(), c.SerializationCycles(replyBytes); got != want {
			t.Fatalf("%v: reply serialization %v, want %v", c.Kind, got, want)
		}
	}
	if New(Mesh, 64).ReplySerializationCycles() <= New(Crossbar, 16).ReplySerializationCycles() {
		t.Fatal("flit-serialized mesh reply should cost more than the wide crossbar datapath")
	}
}

// ParseKind takes every wire token, in any case, and each alias the
// CLIs and the sweep API accept; anything else is an error.
func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Ideal, Crossbar, Mesh, FlattenedButterfly, NOCOut} {
		for _, name := range []string{k.WireName(), strings.ToUpper(k.WireName())} {
			if got, err := ParseKind(name); err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	for name, want := range map[string]Kind{
		"xbar": Crossbar, "fbfly": FlattenedButterfly, "Butterfly": FlattenedButterfly, "nocout": NOCOut,
	} {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "token-ring", " mesh"} {
		if _, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted", name)
		}
	}
}
