package sim

import "testing"

// FuzzUnmarshalWire hardens the wire decoder against arbitrary bytes:
// the daemon feeds client-controlled "config" objects straight into
// UnmarshalWire/Decode, so no input may panic, and anything that does
// decode must satisfy the same round-trip invariant the property test
// checks — re-encoding the decoded configuration reproduces its memo
// key exactly. The seed corpus is the property test's 300 randomized
// valid encodings (same generator, seed 7) plus malformed shapes:
// truncations, wrong JSON kinds, version skew, and non-JSON bytes.
func FuzzUnmarshalWire(f *testing.F) {
	for i, cfg := range wireWalk(7, 300) {
		data, err := cfg.MarshalWire()
		if err != nil {
			f.Fatalf("seed %d: MarshalWire: %v", i, err)
		}
		f.Add(data)
		if i == 0 {
			f.Add(data[:len(data)/2])
		}
	}
	for _, seed := range []string{
		``,
		`not json`,
		`{}`,
		`[1,2,3]`,
		`"sim"`,
		`{"wire_version":1}`,
		`{"wire_version":99,"field_from_the_future":true}`,
		`{"wire_version":1,"kind":"structural","cores":-1}`,
		`{"wire_version":1,"workload":{"name":"x","base_ipc":{"ooo":1e308}}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		wc, err := UnmarshalWire(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		dec, err := wc.Decode()
		if err != nil {
			return
		}
		switch cfg := dec.(type) {
		case Config:
			roundTrip(t, cfg.Key(), func() ([]byte, error) { return cfg.MarshalWire() })
		case StructuralConfig:
			roundTrip(t, cfg.Key(), func() ([]byte, error) { return cfg.MarshalWire() })
		default:
			t.Fatalf("Decode returned %T", dec)
		}
	})
}

// roundTrip re-encodes a successfully decoded configuration and
// requires the second decode to land on the identical memo key — the
// invariant that keeps a cluster's routed results keyed consistently no
// matter which hop decoded the bytes.
func roundTrip(t *testing.T, wantKey string, marshal func() ([]byte, error)) {
	t.Helper()
	data, err := marshal()
	if err != nil {
		t.Fatalf("decoded config does not re-encode: %v", err)
	}
	wc, err := UnmarshalWire(data)
	if err != nil {
		t.Fatalf("re-encoded config does not decode: %v", err)
	}
	dec, err := wc.Decode()
	if err != nil {
		t.Fatalf("re-encoded config does not validate: %v", err)
	}
	var key string
	switch cfg := dec.(type) {
	case Config:
		key = cfg.Key()
	case StructuralConfig:
		key = cfg.Key()
	default:
		t.Fatalf("re-decode returned %T", dec)
	}
	if key != wantKey {
		t.Fatalf("round-trip key mismatch:\n got %s\nwant %s", key, wantKey)
	}
}
