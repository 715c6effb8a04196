package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scaleout/internal/sim"
)

// FuzzReplay hardens log replay, the store's decoder for bytes another
// process wrote — possibly torn by a crash or damaged on disk. Behind a
// valid header, arbitrary bytes must never make Open panic or fail; a
// second Open of the same directory must rebuild the same index
// (reopening is the recovery, so it must be idempotent); and every
// Load must either return a value of its record's kind or miss. The
// seed corpus holds two valid records, torn copies of them, and the CI
// store job's torn-tail bytes.
func FuzzReplay(f *testing.F) {
	record := func(kind byte, key string, val any) []byte {
		data, err := json.Marshal(val)
		if err != nil {
			f.Fatal(err)
		}
		return encodeRecord(kind, key, data)
	}
	two := append(record(kindSim, "sim:a", simVal(1)), record(kindStructural, "structural:b", structVal(2))...)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(two[:len(two)/2])
	f.Add([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LogName), append([]byte(magic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		first := indexOf(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		if second := indexOf(r); !reflect.DeepEqual(first, second) {
			t.Fatalf("reopening changed the index:\nfirst:  %v\nsecond: %v", first, second)
		}
		for key, rec := range first {
			v, ok := r.Load(key)
			if !ok {
				continue
			}
			switch v.(type) {
			case sim.Result:
				if rec.kind != kindSim {
					t.Fatalf("%q: kind %d record served as sim.Result", key, rec.kind)
				}
			case sim.StructuralResult:
				if rec.kind != kindStructural {
					t.Fatalf("%q: kind %d record served as sim.StructuralResult", key, rec.kind)
				}
			default:
				t.Fatalf("%q: kind %d record served as %T", key, rec.kind, v)
			}
		}
	})
}

// indexOf copies the store's live index.
func indexOf(s *Store) map[string]record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := make(map[string]record, len(s.index))
	for k, v := range s.index {
		m[k] = v
	}
	return m
}
