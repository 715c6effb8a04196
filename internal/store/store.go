// Package store persists simulator results across processes: a
// crash-safe, append-only, content-addressed log keyed by the same
// canonical memo keys the experiment engine memoizes under
// (sim.Config.Key, sim.StructuralConfig.Key: the kind, a colon and the
// hex SHA-256 of the configuration's canonical wire fields, 68–75
// bytes), so every soproc invocation, soprocd restart, and
// cluster-replica crash recovery is a warm start instead of a
// recomputation.
//
// A Store implements engine.Store and installs on an engine with
// Engine.SetStore as a read-through/write-through second tier beneath
// the bounded in-memory memo: a memo miss probes the store before the
// point is routed or computed, and every successful computation (local
// or routed) is appended. Because the value written is the result's
// JSON wire form — the same encoding the /v1/sweep API uses, and Go
// round-trips float64 through JSON exactly — a disk-served figure is
// byte-identical to a freshly simulated one.
//
// # On-disk format
//
// One file, results.log, in the store directory:
//
//	header:  8 bytes, "SOSTORE2" (magic + format version)
//	record:  uint32 LE payload length
//	         uint32 LE CRC32-IEEE of the payload
//	         payload = kind byte | uint32 LE key length | key | value JSON
//
// Version 2 marks the hashed memo keys. A version-1 log ("SOSTORE1")
// holds records keyed in the retired Go-syntax format that no build
// looks up again; since they are never superseded, auto-compaction
// would never drop them, so Open replaces such a log with an empty
// version-2 one through the compaction path instead of replaying it.
//
// Appends are single write(2) calls, so a crash can tear at most the
// final record. Open scans the log sequentially: a record whose CRC
// does not match its payload is skipped (its framing is intact, so the
// scan continues), and the first record whose framing is broken — a
// torn tail — ends the scan and is truncated away. The log therefore
// never needs a recovery tool: reopening it is the recovery.
//
// Compaction rewrites the live records (one per key, sorted) into a
// temporary file that is synced, renamed over the log, and made durable
// by syncing the directory, so a crash mid-compaction leaves either the
// old log or the new one, never a hybrid. Open compacts automatically
// when dead records (skipped or superseded) outnumber live ones.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"scaleout/internal/sim"
)

// magic is the log header: format name plus version. A file that
// begins with neither it nor retiredMagic is not a result log, and Open
// refuses to touch it.
const magic = "SOSTORE2"

// retiredMagic heads a version-1 log, whose records are keyed in a
// retired format; Open starts such a log afresh.
const retiredMagic = "SOSTORE1"

// LogName is the log's file name inside the store directory.
const LogName = "results.log"

// DefaultDir is the store directory the -store flags default to; it is
// git-ignored at the repository root.
const DefaultDir = ".sostore"

// maxRecord bounds one record's payload. Real records are a few hundred
// bytes (a memo key plus a result's JSON); a length field beyond this
// is framing corruption, not a record.
const maxRecord = 16 << 20

// Result kinds, the first payload byte of every record. The store
// persists exactly the engine memo values that have a stable wire form.
const (
	kindSim        = 1 // sim.Result
	kindStructural = 2 // sim.StructuralResult
)

// record is one live index entry: the result kind and its JSON value,
// decoded lazily on Load so concurrent readers never share a value.
type record struct {
	kind byte
	val  []byte
}

// Store is the persistent result store. Construct with Open; a Store is
// safe for concurrent use. Writes go straight to the log file (one
// write per append, no fsync — a torn tail is recovered on the next
// Open); Flush or Close syncs the file when durability must be
// enforced, e.g. on soprocd's graceful drain.
type Store struct {
	mu    sync.RWMutex
	f     *os.File
	path  string
	index map[string]record
	size  int64 // current log length in bytes
	dead  int   // on-disk records not in the index (skipped, superseded or undecodable)

	loaded      int64 // records loaded by Open
	appends     atomic.Int64
	compactions atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	saveErrors  atomic.Int64
}

// Open opens (creating if necessary) the result store in dir and
// replays its log into memory: every live record becomes servable
// before the first request, which is what re-warms a restarted daemon's
// shard before it takes traffic. A corrupt tail is truncated, CRC-
// mismatched records are skipped, and a log more than half dead is
// compacted in place. A version-1 log is replaced by an empty one.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f, path: path, index: make(map[string]record)}
	retired, err := s.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	if retired || (s.dead > 0 && s.dead >= len(s.index)) {
		if err := s.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// replay scans the log, building the index and truncating any corrupt
// tail. It reports a version-1 log as retired without reading its
// records: the index stays empty, and compacting it over the file
// starts a fresh log. Called once from Open, before the store is
// shared.
func (s *Store) replay() (retired bool, err error) {
	buf, err := os.ReadFile(s.path)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if len(buf) == 0 {
		if _, err := s.f.Write([]byte(magic)); err != nil {
			return false, fmt.Errorf("store: write header: %w", err)
		}
		s.size = int64(len(magic))
		return false, nil
	}
	if bytes.HasPrefix(buf, []byte(retiredMagic)) {
		return true, nil
	}
	if len(buf) < len(magic) || string(buf[:len(magic)]) != magic {
		return false, fmt.Errorf("store: %s is not a result log (bad header)", s.path)
	}

	end := len(magic) // offset past the last well-framed record
	for end+8 <= len(buf) {
		n := int(binary.LittleEndian.Uint32(buf[end:]))
		sum := binary.LittleEndian.Uint32(buf[end+4:])
		if n < 5 || n > maxRecord || end+8+n > len(buf) {
			break // framing broken: torn tail starts here
		}
		payload := buf[end+8 : end+8+n]
		end += 8 + n
		if crc32.ChecksumIEEE(payload) != sum {
			// The record is framed but its bytes are damaged: skip it
			// and keep scanning — records behind it are still good.
			s.dead++
			continue
		}
		kind := payload[0]
		keyLen := int(binary.LittleEndian.Uint32(payload[1:]))
		if keyLen < 0 || 5+keyLen > n {
			s.dead++
			continue
		}
		key := string(payload[5 : 5+keyLen])
		if _, ok := s.index[key]; ok {
			s.dead++ // superseded: last record for a key wins
		}
		val := make([]byte, n-5-keyLen)
		copy(val, payload[5+keyLen:])
		s.index[key] = record{kind: kind, val: val}
		s.loaded++
	}
	if end < len(buf) {
		if err := s.f.Truncate(int64(end)); err != nil {
			return false, fmt.Errorf("store: truncate corrupt tail: %w", err)
		}
	}
	if _, err := s.f.Seek(int64(end), 0); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	s.size = int64(end)
	return false, nil
}

// Load returns the stored result for key, decoded into the same typed
// value the key's computation would produce (sim.Result or
// sim.StructuralResult). It implements engine.Store: the experiment
// engine probes it on every memo miss.
func (s *Store) Load(key string) (any, bool) {
	s.mu.RLock()
	rec, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	var val any
	var err error
	switch rec.kind {
	case kindSim:
		var r sim.Result
		err = json.Unmarshal(rec.val, &r)
		val = r
	case kindStructural:
		var r sim.StructuralResult
		err = json.Unmarshal(rec.val, &r)
		val = r
	default:
		err = fmt.Errorf("store: unknown record kind %d", rec.kind)
	}
	if err != nil {
		// An undecodable record is a miss, not a failure. It leaves the
		// index, so the engine's recomputation is appended and supersedes
		// it on replay — unless a concurrent Save has already replaced it
		// (an equal record would fail to decode just the same).
		s.mu.Lock()
		if cur, ok := s.index[key]; ok && cur.kind == rec.kind && bytes.Equal(cur.val, rec.val) {
			delete(s.index, key)
			s.dead++
		}
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return val, true
}

// Save appends (key, val) to the log if the value has a persistable
// wire form — sim.Result or sim.StructuralResult; anything else is
// ignored — and the key is not already stored. It implements
// engine.Store: the engine writes every successful computation through.
// Append errors are counted (Stats.SaveErrors) and the log rolled back
// to its previous length, never left half-written.
func (s *Store) Save(key string, val any) {
	if key == "" {
		return
	}
	var kind byte
	switch val.(type) {
	case sim.Result:
		kind = kindSim
	case sim.StructuralResult:
		kind = kindStructural
	default:
		return
	}
	data, err := json.Marshal(val)
	if err != nil {
		s.saveErrors.Add(1)
		return
	}
	rec := encodeRecord(kind, key, data)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return // computations are deterministic: the stored value stands
	}
	if _, err := s.f.Write(rec); err != nil {
		// Roll the log back so the next append starts on a clean record
		// boundary instead of extending a partial write.
		s.saveErrors.Add(1)
		s.f.Truncate(s.size)
		s.f.Seek(s.size, 0)
		return
	}
	s.size += int64(len(rec))
	s.index[key] = record{kind: kind, val: data}
	s.appends.Add(1)
}

// encodeRecord frames one record: length, CRC, then payload.
func encodeRecord(kind byte, key string, val []byte) []byte {
	n := 5 + len(key) + len(val)
	rec := make([]byte, 8+n)
	payload := rec[8:]
	payload[0] = kind
	binary.LittleEndian.PutUint32(payload[1:], uint32(len(key)))
	copy(payload[5:], key)
	copy(payload[5+len(key):], val)
	binary.LittleEndian.PutUint32(rec[0:], uint32(n))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	return rec
}

// Len reports the number of live (servable) entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Compact rewrites the log as one record per live key (sorted, so the
// compacted form is deterministic) in a temporary file that atomically
// renames over the log; the directory is synced after the rename, so
// neither the rename nor the records appended after it can vanish in a
// power loss. Dead bytes — superseded, skipped, or truncated records —
// are dropped.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	size := int64(0)
	write := func(b []byte) error {
		n, werr := f.Write(b)
		size += int64(n)
		return werr
	}
	if err := write([]byte(magic)); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec := s.index[k]
		if err := write(encodeRecord(rec.kind, k, rec.val)); err != nil {
			f.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	old := s.f
	nf, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: reopen: %w", err)
	}
	if _, err := nf.Seek(size, 0); err != nil {
		nf.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	old.Close()
	s.f = nf
	s.size = size
	s.dead = 0
	s.compactions.Add(1)
	// The rename is durable only once the directory entry is: sync it
	// before any append lands in the new file.
	if err := syncDir(filepath.Dir(s.path)); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// syncDir forces a directory's entries — a rename inside it — to stable
// storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Flush forces the log's buffered writes to stable storage (fsync).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Close syncs and closes the log. The Store must not be used after
// Close; a daemon calls it after its graceful drain, so every result
// computed before shutdown is durable for the restart's warm start.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return s.f.Close()
}

// Stats is a snapshot of the store's counters; the JSON field names are
// the /statsz "store" section's wire format.
type Stats struct {
	// Loaded is the number of records Open replayed from disk — a
	// restarted daemon reporting Loaded > 0 re-warmed from its log.
	// Entries is the current live-key count (Loaded plus appends since).
	Loaded  int64 `json:"loaded"`
	Entries int   `json:"entries"`
	// DiskHits and DiskMisses count Load probes — in engine terms,
	// memo misses answered from disk vs. sent on to compute.
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	// Appends counts records written this process; Compactions the
	// snapshot rewrites; Bytes the log's current length. SaveErrors
	// counts appends abandoned on a write error (the log is rolled back
	// to a record boundary each time).
	Appends     int64 `json:"appends"`
	Compactions int64 `json:"compactions"`
	Bytes       int64 `json:"bytes"`
	SaveErrors  int64 `json:"save_errors,omitempty"`
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	entries := len(s.index)
	bytes := s.size
	s.mu.RUnlock()
	return Stats{
		Loaded:      s.loaded,
		Entries:     entries,
		DiskHits:    s.hits.Load(),
		DiskMisses:  s.misses.Load(),
		Appends:     s.appends.Load(),
		Compactions: s.compactions.Load(),
		Bytes:       bytes,
		SaveErrors:  s.saveErrors.Load(),
	}
}
