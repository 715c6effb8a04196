package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// WireVersion is the version of the canonical wire encoding this
// process speaks. A receiver that decodes a WireConfig with any other
// wire_version rejects it with a *WireVersionError — never a guess at
// compatibility — so mixed-version clusters fail loudly and per-point
// instead of corrupting memo keys.
const WireVersion = 1

// WireConfig is the versioned, self-describing wire form of a Config or
// StructuralConfig: the single point representation every layer shares,
// from figure generators through the cluster coordinator to a replica's
// /v1/sweep handler. Unlike the legacy symbolic sweep fields, it
// carries the complete interconnect (noc.Wire, including WireDelta,
// Concentration, ExpressLinks, TileEdge, LinkBits) and the full
// workload (workload.Workload), so *every* point a figure can
// construct is representable — nothing silently "never leaves the
// process".
//
// Producers build one with Config.Wire or StructuralConfig.Wire, which
// canonicalize first and enforce round-trip key equality; consumers
// decode bytes with UnmarshalWire and materialize the configuration
// with Decode. The memo key hashes these same fields (see configKey)
// and is always re-derived from the decoded form (Config.Key /
// StructuralConfig.Key), never carried on the wire.
type WireConfig struct {
	// Version is the encoding version (WireVersion); wire_version is
	// the first field a receiver checks.
	Version int `json:"wire_version"`

	// Kind selects the simulator: "sim" or "structural".
	Kind string `json:"kind"`

	Workload workload.Workload `json:"workload"`

	// Core is the core microarchitecture token: "conventional", "ooo",
	// or "in-order".
	Core string `json:"core"`

	Cores int     `json:"cores"`
	LLCMB float64 `json:"llc_mb"`

	Net noc.Wire `json:"net"`

	MemChannels   int    `json:"mem_channels"`
	WarmupCycles  int    `json:"warmup_cycles"`
	MeasureCycles int    `json:"measure_cycles"`
	Seed          uint64 `json:"seed"`

	// DisableSWScaling applies to kind "sim" only.
	DisableSWScaling bool `json:"disable_sw_scaling,omitempty"`
	// L1MSHRs applies to kind "structural" only.
	L1MSHRs int `json:"l1_mshrs,omitempty"`
}

// WireVersionError reports a WireConfig whose wire_version this process
// does not speak. The serve layer maps it to a structured 400 carrying
// the offending version; the cluster coordinator treats that response
// as permanent for the replica (no retry, no markDown).
type WireVersionError struct {
	// Version is the wire_version the peer sent.
	Version int
}

// Error names the unsupported version and the one this process speaks.
func (e *WireVersionError) Error() string {
	return fmt.Sprintf("sim: unsupported wire_version %d (this process speaks %d)", e.Version, WireVersion)
}

// Unroutable is the route payload of an engine point whose
// configuration could not be converted to the wire form — an invalid
// configuration, a core type with no wire name, or a conversion the
// round-trip key check in Wire rejects. Shipping this marker instead of
// a nil payload keeps the failure visible: the cluster coordinator
// counts and logs it before declining, so representability gaps surface
// in /statsz rather than silently computing locally.
type Unroutable struct {
	// Key is the point's memo key; Err says why it cannot travel.
	Key string
	Err error
}

// coreWireName maps a core type to its wire token; ok is false for
// values outside the enum.
func coreWireName(t tech.CoreType) (string, bool) {
	switch t {
	case tech.Conventional:
		return "conventional", true
	case tech.OoO:
		return "ooo", true
	case tech.InOrder:
		return "in-order", true
	default:
		return "", false
	}
}

// coreToken is the core's wire name, or for a core type outside the
// enum a placeholder no valid wire config carries, so such a
// configuration still has a distinct memo key.
func coreToken(t tech.CoreType) string {
	if name, ok := coreWireName(t); ok {
		return name
	}
	return fmt.Sprintf("core(%d)", int(t))
}

// parseWireCore is coreWireName's inverse.
func parseWireCore(name string) (tech.CoreType, bool) {
	switch name {
	case "conventional":
		return tech.Conventional, true
	case "ooo":
		return tech.OoO, true
	case "in-order":
		return tech.InOrder, true
	default:
		return 0, false
	}
}

// wireFields lays the configuration out field for field in wire form,
// without validating it: the one field list behind both Wire and Key.
func (c Config) wireFields() WireConfig {
	return WireConfig{
		Version:          WireVersion,
		Kind:             "sim",
		Workload:         c.Workload,
		Core:             coreToken(c.CoreType),
		Cores:            c.Cores,
		LLCMB:            c.LLCMB,
		Net:              c.Net.Wire(),
		MemChannels:      c.MemChannels,
		WarmupCycles:     c.WarmupCycles,
		MeasureCycles:    c.MeasureCycles,
		Seed:             c.Seed,
		DisableSWScaling: c.DisableSWScaling,
	}
}

// wireFields is Config.wireFields for the structural simulator.
func (c StructuralConfig) wireFields() WireConfig {
	return WireConfig{
		Version:       WireVersion,
		Kind:          "structural",
		Workload:      c.Workload,
		Core:          coreToken(c.CoreType),
		Cores:         c.Cores,
		LLCMB:         c.LLCMB,
		Net:           c.Net.Wire(),
		MemChannels:   c.MemChannels,
		WarmupCycles:  c.WarmupCycles,
		MeasureCycles: c.MeasureCycles,
		Seed:          c.Seed,
		L1MSHRs:       c.L1MSHRs,
	}
}

// Wire converts the configuration to its canonical wire form. The
// configuration is canonicalized first (defaults applied), so two
// Configs with equal Keys marshal identically; the conversion then
// decodes its own output and verifies the re-derived memo key matches —
// the loud failure that catches an asymmetric Config ↔ WireConfig
// conversion. An error here makes the point unroutable (see
// WirePayload), never silently lossy.
func (c Config) Wire() (WireConfig, error) {
	cc, err := c.Canonical()
	if err != nil {
		return WireConfig{}, fmt.Errorf("sim: invalid config: %w", err)
	}
	if _, ok := coreWireName(cc.CoreType); !ok {
		return WireConfig{}, fmt.Errorf("sim: core type %v has no wire name", cc.CoreType)
	}
	w := cc.wireFields()
	dec, err := w.simConfig()
	if err != nil {
		return WireConfig{}, fmt.Errorf("sim: wire round-trip: %w", err)
	}
	if key := configKey(w, true); dec.Key() != key {
		return WireConfig{}, fmt.Errorf("sim: wire round-trip changes the memo key for %s — Config and WireConfig do not convert symmetrically", key)
	}
	return w, nil
}

// Wire converts the structural configuration to its canonical wire
// form, with the same canonicalization and round-trip key enforcement
// as Config.Wire.
func (c StructuralConfig) Wire() (WireConfig, error) {
	cc, err := c.Canonical()
	if err != nil {
		return WireConfig{}, fmt.Errorf("sim: invalid structural config: %w", err)
	}
	if _, ok := coreWireName(cc.CoreType); !ok {
		return WireConfig{}, fmt.Errorf("sim: core type %v has no wire name", cc.CoreType)
	}
	w := cc.wireFields()
	dec, err := w.structuralConfig()
	if err != nil {
		return WireConfig{}, fmt.Errorf("sim: wire round-trip: %w", err)
	}
	if key := configKey(w, true); dec.Key() != key {
		return WireConfig{}, fmt.Errorf("sim: wire round-trip changes the memo key for %s — StructuralConfig and WireConfig do not convert symmetrically", key)
	}
	return w, nil
}

// MarshalWire encodes the configuration's canonical wire form as JSON.
func (c Config) MarshalWire() ([]byte, error) {
	w, err := c.Wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// MarshalWire encodes the structural configuration's canonical wire
// form as JSON.
func (c StructuralConfig) MarshalWire() ([]byte, error) {
	w, err := c.Wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// UnmarshalWire decodes one wire-form configuration. The version is
// checked before anything else — an unknown wire_version returns a
// *WireVersionError even if the rest of the document has fields this
// process has never heard of — and only then is the body decoded
// strictly (unknown fields rejected). The returned WireConfig is
// syntactically decoded but not yet validated; Decode materializes and
// validates the configuration.
func UnmarshalWire(data []byte) (WireConfig, error) {
	var v struct {
		Version *int `json:"wire_version"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return WireConfig{}, fmt.Errorf("sim: bad wire config: %w", err)
	}
	if v.Version == nil {
		return WireConfig{}, fmt.Errorf("sim: wire config missing wire_version")
	}
	if *v.Version != WireVersion {
		return WireConfig{}, &WireVersionError{Version: *v.Version}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w WireConfig
	if err := dec.Decode(&w); err != nil {
		return WireConfig{}, fmt.Errorf("sim: bad wire config: %w", err)
	}
	return w, nil
}

// Decode materializes the configuration the wire form describes — a
// Config for kind "sim", a StructuralConfig for kind "structural" —
// validated by the same Canonical rules that gate every locally
// constructed point (workload ranges included). The memo key is always
// re-derived from the returned value; the wire carries no key to trust.
func (w WireConfig) Decode() (any, error) {
	switch w.Kind {
	case "sim":
		c, err := w.simConfig()
		if err != nil {
			return nil, err
		}
		return c, nil
	case "structural":
		c, err := w.structuralConfig()
		if err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, fmt.Errorf("sim: unknown wire kind %q (want sim or structural)", w.Kind)
	}
}

// fields decodes the parts shared by both simulator kinds.
func (w WireConfig) fields() (workload.Workload, tech.CoreType, noc.Config, error) {
	core, ok := parseWireCore(w.Core)
	if !ok {
		return workload.Workload{}, 0, noc.Config{}, fmt.Errorf("sim: unknown wire core %q (want conventional, ooo, or in-order)", w.Core)
	}
	net, err := w.Net.Config()
	if err != nil {
		return workload.Workload{}, 0, noc.Config{}, err
	}
	return w.Workload, core, net, nil
}

func (w WireConfig) simConfig() (Config, error) {
	if w.L1MSHRs != 0 {
		return Config{}, fmt.Errorf("sim: l1_mshrs on a %q wire config", w.Kind)
	}
	wl, core, net, err := w.fields()
	if err != nil {
		return Config{}, err
	}
	c := Config{
		Workload: wl, CoreType: core, Cores: w.Cores, LLCMB: w.LLCMB,
		Net: net, MemChannels: w.MemChannels,
		WarmupCycles: w.WarmupCycles, MeasureCycles: w.MeasureCycles,
		Seed: w.Seed, DisableSWScaling: w.DisableSWScaling,
	}
	if _, err := c.Canonical(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func (w WireConfig) structuralConfig() (StructuralConfig, error) {
	if w.DisableSWScaling {
		return StructuralConfig{}, fmt.Errorf("sim: disable_sw_scaling on a %q wire config", w.Kind)
	}
	wl, core, net, err := w.fields()
	if err != nil {
		return StructuralConfig{}, err
	}
	c := StructuralConfig{
		Workload: wl, CoreType: core, Cores: w.Cores, LLCMB: w.LLCMB,
		Net: net, MemChannels: w.MemChannels,
		WarmupCycles: w.WarmupCycles, MeasureCycles: w.MeasureCycles,
		Seed: w.Seed, L1MSHRs: w.L1MSHRs,
	}
	if _, err := c.Canonical(); err != nil {
		return StructuralConfig{}, err
	}
	return c, nil
}

// WirePayload returns the route payload engine points attach to this
// configuration: its wire form, or an Unroutable marker when conversion
// fails, so the failure is counted at the coordinator instead of
// vanishing into a nil payload.
func (c Config) WirePayload() any {
	w, err := c.Wire()
	if err != nil {
		return Unroutable{Key: c.Key(), Err: err}
	}
	return w
}

// WirePayload returns the route payload for a structural point; see
// Config.WirePayload.
func (c StructuralConfig) WirePayload() any {
	w, err := c.Wire()
	if err != nil {
		return Unroutable{Key: c.Key(), Err: err}
	}
	return w
}

// Run executes the statistical simulator on the configuration — the
// method form of Run(c), giving generic engine points (exp.SimPoint)
// one call surface across both simulator kinds.
func (c Config) Run() (Result, error) { return Run(c) }

// Run executes the structural simulator on the configuration; see
// Config.Run.
func (c StructuralConfig) Run() (StructuralResult, error) { return RunStructural(c) }
