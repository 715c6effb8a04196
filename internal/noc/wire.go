package noc

import (
	"fmt"
	"strings"
)

// WireName returns the kind's canonical wire token — the lower-case
// name the sweep API and the versioned simulator wire form
// (sim.WireConfig) carry, stable across any reordering of the Kind
// enum. ParseWireKind is its inverse.
func (k Kind) WireName() string {
	switch k {
	case Ideal:
		return "ideal"
	case Crossbar:
		return "crossbar"
	case Mesh:
		return "mesh"
	case FlattenedButterfly:
		return "flattened-butterfly"
	case NOCOut:
		return "noc-out"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseWireKind resolves a canonical wire token (WireName) back to its
// Kind; ok is false for anything else, including the aliases ParseKind
// accepts.
func ParseWireKind(name string) (Kind, bool) {
	switch name {
	case "ideal":
		return Ideal, true
	case "crossbar":
		return Crossbar, true
	case "mesh":
		return Mesh, true
	case "flattened-butterfly":
		return FlattenedButterfly, true
	case "noc-out":
		return NOCOut, true
	default:
		return 0, false
	}
}

// ParseKind resolves a human-typed interconnect name, in any case: the
// wire token (WireName) or an alias — "xbar" for crossbar, "fbfly" or
// "butterfly" for flattened-butterfly, "nocout" for noc-out. The CLIs
// and the sweep API's short form use it; wire decoders use the strict
// ParseWireKind.
func ParseKind(name string) (Kind, error) {
	token := strings.ToLower(name)
	switch token {
	case "xbar":
		token = "crossbar"
	case "fbfly", "butterfly":
		token = "flattened-butterfly"
	case "nocout":
		token = "noc-out"
	}
	if k, ok := ParseWireKind(token); ok {
		return k, nil
	}
	return 0, fmt.Errorf("unknown interconnect %q (want ideal, crossbar, mesh, flattened-butterfly or noc-out)", name)
}

// Wire is the complete JSON form of a Config: every field the
// interconnect model consumes, with the kind carried by name so the
// encoding is self-describing. Unlike the sweep API's symbolic "net"
// field, Wire loses nothing — WireDelta, Concentration, ExpressLinks,
// and a custom TileEdge all travel — which is what lets a cluster
// coordinator ship any interconnect a figure can construct.
type Wire struct {
	Kind          string  `json:"kind"`
	Cores         int     `json:"cores"`
	LLCTiles      int     `json:"llc_tiles,omitempty"`
	TileEdge      float64 `json:"tile_edge,omitempty"`
	LinkBits      int     `json:"link_bits,omitempty"`
	WireDelta     float64 `json:"wire_delta,omitempty"`
	Concentration int     `json:"concentration,omitempty"`
	ExpressLinks  bool    `json:"express_links,omitempty"`
}

// Wire converts the Config to its wire form, field for field.
func (c Config) Wire() Wire {
	return Wire{
		Kind:          c.Kind.WireName(),
		Cores:         c.Cores,
		LLCTiles:      c.LLCTiles,
		TileEdge:      c.TileEdge,
		LinkBits:      c.LinkBits,
		WireDelta:     c.WireDelta,
		Concentration: c.Concentration,
		ExpressLinks:  c.ExpressLinks,
	}
}

// Config converts a decoded wire form back to the Config it encodes.
// It errors on an unknown kind token; numeric fields are carried
// verbatim (the simulators apply their own defaulting and validation).
func (w Wire) Config() (Config, error) {
	kind, ok := ParseWireKind(w.Kind)
	if !ok {
		return Config{}, fmt.Errorf("noc: unknown wire kind %q", w.Kind)
	}
	return Config{
		Kind:          kind,
		Cores:         w.Cores,
		LLCTiles:      w.LLCTiles,
		TileEdge:      w.TileEdge,
		LinkBits:      w.LinkBits,
		WireDelta:     w.WireDelta,
		Concentration: w.Concentration,
		ExpressLinks:  w.ExpressLinks,
	}, nil
}
