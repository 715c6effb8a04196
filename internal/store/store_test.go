package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scaleout/internal/exp/engine"
	"scaleout/internal/sim"
)

func simVal(i int) sim.Result {
	return sim.Result{
		AppIPC:     1.0 + float64(i)/3.0, // not exactly representable: exercises float round-trip
		PerCoreIPC: 0.25 * float64(i),
		OffChipGBs: float64(i) * 7.3,
	}
}

func structVal(i int) sim.StructuralResult {
	return sim.StructuralResult{
		Result:     simVal(i),
		L1IMPKI:    float64(i) / 7.0,
		L1DMPKI:    float64(i) / 11.0,
		LLCMissPct: float64(i) * 1.5,
	}
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	s.Save("sim", simVal(1))
	s.Save("struct", structVal(2))
	s.Save("ignored", 42) // no wire form: silently not persisted

	got, ok := s.Load("sim")
	if !ok {
		t.Fatal("sim key missing")
	}
	if got != any(simVal(1)) {
		t.Fatalf("sim round-trip: got %#v want %#v", got, simVal(1))
	}
	got, ok = s.Load("struct")
	if !ok {
		t.Fatal("struct key missing")
	}
	if got != any(structVal(2)) {
		t.Fatalf("struct round-trip: got %#v want %#v", got, structVal(2))
	}
	if _, ok := s.Load("ignored"); ok {
		t.Fatal("unpersistable value was stored")
	}
	if _, ok := s.Load("absent"); ok {
		t.Fatal("absent key reported present")
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

func TestReopenReplaysLog(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 10; i++ {
		s.Save(fmt.Sprintf("k%d", i), simVal(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	if st := r.Stats(); st.Loaded != 10 || st.Entries != 10 {
		t.Fatalf("reopen: loaded %d entries %d, want 10/10", st.Loaded, st.Entries)
	}
	for i := 0; i < 10; i++ {
		got, ok := r.Load(fmt.Sprintf("k%d", i))
		if !ok || got != any(simVal(i)) {
			t.Fatalf("k%d after reopen: got %#v ok=%v", i, got, ok)
		}
	}
}

// TestCorruptTailTruncated tears the final record mid-write (the crash
// the single-write append bounds the damage to) and checks that Open
// recovers every whole record, truncates the torn bytes, and accepts
// new appends on the clean boundary.
func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 5; i++ {
		s.Save(fmt.Sprintf("k%d", i), simVal(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, LogName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn tail: a plausible length prefix with only half a record
	// behind it.
	torn := append(append([]byte{}, buf...), 0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	if st := r.Stats(); st.Loaded != 5 {
		t.Fatalf("loaded %d records after torn tail, want 5", st.Loaded)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(buf)) {
		t.Fatalf("log size %d after recovery, want %d (torn bytes truncated)", fi.Size(), len(buf))
	}
	// The log must keep working on the recovered boundary.
	r.Save("after", simVal(99))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, dir)
	if got, ok := r2.Load("after"); !ok || got != any(simVal(99)) {
		t.Fatalf("append after recovery: got %#v ok=%v", got, ok)
	}
}

// TestCRCMismatchSkipped damages one record's payload in place; Open
// must skip exactly that record and keep serving the ones behind it.
func TestCRCMismatchSkipped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Save("a", simVal(1))
	mark := s.Stats().Bytes // "b" starts here
	s.Save("b", simVal(2))
	s.Save("c", simVal(3))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, LogName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[mark+8+6] ^= 0xff // a payload byte of record "b": CRC now mismatches
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	if _, ok := r.Load("b"); ok {
		t.Fatal("CRC-damaged record was served")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := r.Load(k); !ok {
			t.Fatalf("record %q lost alongside the damaged one", k)
		}
	}
}

// TestUndecodableRecordSuperseded: a framed, CRC-valid record whose
// value no longer decodes (here a field of the wrong type) misses, and
// the recomputed result saved under its key must be appended and served
// from then on — in this process and after a reopen — instead of the
// point missing, and being re-simulated, on every run.
func TestUndecodableRecordSuperseded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LogName)
	bad := append([]byte(magic), encodeRecord(kindSim, "sim:abc", []byte(`{"cycles":"not a number"}`))...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir)
	if _, ok := s.Load("sim:abc"); ok {
		t.Fatal("undecodable record was served")
	}
	want := sim.Result{Cycles: 7}
	s.Save("sim:abc", want)
	if st := s.Stats(); st.Appends != 1 {
		t.Fatalf("appends = %d after saving over an undecodable record, want 1", st.Appends)
	}
	if got, ok := s.Load("sim:abc"); !ok || got != any(want) {
		t.Fatalf("after save: got %#v ok=%v, want %#v", got, ok, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	if got, ok := r.Load("sim:abc"); !ok || got != any(want) {
		t.Fatalf("after reopen: got %#v ok=%v, want %#v", got, ok, want)
	}
}

// TestUndecodableRecordConcurrent races Loads that drop an undecodable
// record against Saves of its recomputed value under the race detector:
// a Load must drop only the record it failed to decode, never a value
// saved meanwhile, and a Save after the drop is served.
func TestUndecodableRecordConcurrent(t *testing.T) {
	want := sim.Result{Cycles: 7}
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		bad := append([]byte(magic), encodeRecord(kindSim, "sim:abc", []byte(`{"cycles":"x"}`))...)
		if err := os.WriteFile(filepath.Join(dir, LogName), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		s := open(t, dir)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if v, ok := s.Load("sim:abc"); ok && v != any(want) {
					t.Errorf("served %#v, want %#v", v, want)
				}
			}()
			go func() {
				defer wg.Done()
				s.Save("sim:abc", want)
			}()
		}
		wg.Wait()
		if v, ok := s.Load("sim:abc"); ok && v != any(want) {
			t.Fatalf("round %d: served %#v, want %#v", round, v, want)
		}
		s.Save("sim:abc", want)
		if v, ok := s.Load("sim:abc"); !ok || v != any(want) {
			t.Fatalf("round %d: after a final save: got %#v ok=%v", round, v, ok)
		}
		// One drop, then one append: a second append means a Load
		// dropped the saved value.
		if n := s.Stats().Appends; n != 1 {
			t.Fatalf("round %d: %d appends, want 1", round, n)
		}
	}
}

// TestOpenCompactsMostlyDeadLog damages enough records that the dead
// outnumber the live: Open must rewrite the log down to the live set.
func TestOpenCompactsMostlyDeadLog(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Save("a", simVal(1))
	mark := s.Stats().Bytes
	s.Save("b", simVal(2))
	s.Save("c", simVal(3))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, LogName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage "b" and "c": 2 dead >= 1 live triggers the auto-compact.
	buf[mark+8+6] ^= 0xff
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir)
	st := r.Stats()
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if st.Entries != 1 || st.Bytes >= int64(len(buf)) {
		t.Fatalf("after compaction: %d entries, %d bytes (was %d)", st.Entries, st.Bytes, len(buf))
	}
	if _, ok := r.Load("a"); !ok {
		t.Fatal("live record lost in compaction")
	}
}

func TestCompactDeterministicAndServable(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 20; i++ {
		s.Save(fmt.Sprintf("k%02d", i), structVal(i))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, ok := s.Load(fmt.Sprintf("k%02d", i)); !ok {
			t.Fatalf("k%02d lost in compaction", i)
		}
	}
	// Appends after a compaction land in the renamed file.
	s.Save("post", simVal(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	if st := r.Stats(); st.Entries != 21 {
		t.Fatalf("entries after compact+append+reopen = %d, want 21", st.Entries)
	}
}

// TestConcurrentAppendReadThrough drives Save and Load from many
// goroutines at once — the daemon's steady state — and relies on the
// race detector for the interesting assertions.
func TestConcurrentAppendReadThrough(t *testing.T) {
	s := open(t, t.TempDir())
	const writers, keys = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				s.Save(fmt.Sprintf("k%d", i), structVal(i))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				if v, ok := s.Load(fmt.Sprintf("k%d", i)); ok {
					if v != any(structVal(i)) {
						t.Errorf("k%d: concurrent read saw wrong value", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := s.Len(); n != keys {
		t.Fatalf("Len = %d after concurrent appends, want %d", n, keys)
	}
}

// TestEngineEvictionFallsBackToDisk installs the store beneath a
// capacity-1 engine memo: a key evicted from memory must be served from
// disk — counted as a store hit, not recomputed and not a miss.
func TestEngineEvictionFallsBackToDisk(t *testing.T) {
	s := open(t, t.TempDir())
	eng := engine.NewBounded(1, 1)
	eng.SetStore(s)

	computes := 0
	compute := func(i int) func() (any, error) {
		return func() (any, error) {
			computes++
			return simVal(i), nil
		}
	}
	// A context the test owns: t.Context needs Go 1.24, and go.mod
	// promises 1.22.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if _, err := eng.Do(ctx, "a", compute(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Do(ctx, "b", compute(2)); err != nil { // evicts "a"
		t.Fatal(err)
	}
	got, err := eng.Do(ctx, "a", compute(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != any(simVal(1)) {
		t.Fatalf("disk-served value = %#v, want %#v", got, simVal(1))
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (evicted key must come from disk)", computes)
	}
	st := eng.Stats()
	if st.StoreHits != 1 {
		t.Fatalf("StoreHits = %d, want 1", st.StoreHits)
	}
	if st.Misses != 2 {
		t.Fatalf("Misses = %d, want 2 (a disk hit is not a miss)", st.Misses)
	}
}

// TestCachedProbesDisk: the tiered evaluator's non-waiting peek must
// see stored results, so a warm store short-circuits its batch path.
func TestCachedProbesDisk(t *testing.T) {
	s := open(t, t.TempDir())
	s.Save("k", structVal(3))
	eng := engine.New(1)
	eng.SetStore(s)

	got, ok := eng.Cached("k")
	if !ok || got != any(structVal(3)) {
		t.Fatalf("Cached from disk: got %#v ok=%v", got, ok)
	}
	st := eng.Stats()
	if st.Misses != 0 {
		t.Fatalf("Misses = %d after disk-served Cached, want 0", st.Misses)
	}
	if st.StoreHits != 1 {
		t.Fatalf("StoreHits = %d, want 1", st.StoreHits)
	}
	// The probe installed the entry: a second peek is a pure memo hit.
	if _, ok := eng.Cached("k"); !ok {
		t.Fatal("second Cached missed")
	}
	if st := eng.Stats(); st.StoreHits != 1 {
		t.Fatalf("StoreHits = %d after second Cached, want still 1", st.StoreHits)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	for _, content := range []string{"not a log", "SOSTORE3", "SOSTORE"} {
		dir := t.TempDir()
		path := filepath.Join(dir, LogName)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatalf("Open accepted a file headed %q", content)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("Open rewrote a foreign file: %q", got)
		}
	}
}

// TestOpenRetiresVersion1Log: a version-1 log is keyed in a format no
// build looks up again, so Open starts a fresh version-2 log over it —
// by compacting an empty index over the file — rather than replaying
// records that would never be served nor compacted away.
func TestOpenRetiresVersion1Log(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LogName)
	old := append([]byte(retiredMagic), encodeRecord(kindSim, `sim:sim.Config{Cores:16}`, []byte(`{"cycles":1}`))...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir)
	st := s.Stats()
	if st.Loaded != 0 || st.Entries != 0 || st.Compactions != 1 || st.Bytes != int64(len(magic)) {
		t.Fatalf("stats after opening a version-1 log = %+v, want an empty, compacted log", st)
	}
	if got, _ := os.ReadFile(path); string(got) != magic {
		t.Fatalf("log after Open = %q, want only the %s header", got, magic)
	}
	s.Save("k", simVal(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir)
	if st := r.Stats(); st.Loaded != 1 || st.Compactions != 0 {
		t.Fatalf("reopened stats = %+v, want the one new record and no compaction", st)
	}
	if _, ok := r.Load("k"); !ok {
		t.Fatal("record appended after the retirement was lost")
	}
}
