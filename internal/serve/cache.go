package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/harness"
)

// Store is the content-addressed record cache: an in-memory LRU over
// spec hashes (harness.SpecHash) with optional on-disk persistence.
// Records are immutable once computed — a hash fully determines its
// record — so the store needs no invalidation beyond capacity eviction:
// model changes arrive as new EngineVersion hashes, never as updates.
//
// The disk tier is strictly best-effort: a failed write (ENOSPC, a
// directory yanked from under the server, permissions) logs once through
// log.Printf and degrades the store to memory-only rather than failing
// requests — records are recomputable, so losing persistence costs
// warmth, never correctness.  For the same reason a file that does not
// hold a record of the job its hash names is read as a miss.
type Store struct {
	mu    sync.Mutex
	cap   int // max in-memory entries; <= 0 means unbounded
	ll    *list.List
	byKey map[string]*list.Element

	dir          string // "" disables disk persistence
	diskDisabled bool   // a write failed; disk tier abandoned

	hits, diskHits, misses, evictions int64
}

type storeEntry struct {
	key  string
	rec  harness.Record
	json []byte // harness.RecordJSON(rec), kept from the first GetJSON on
}

// StoreStats is a counter snapshot.  Hits counts every Get answered
// (DiskHits the subset that came off disk), Misses every Get that did
// not, Evictions the entries dropped by the in-memory capacity bound
// (evicted entries persisted to disk remain warm there).
type StoreStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	DiskHits  int64 `json:"disk_hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`

	// DiskDisabled reports that a disk-tier write failed and the store
	// degraded itself to memory-only.
	DiskDisabled bool `json:"disk_disabled,omitempty"`
}

// NewStore returns a store holding up to capacity records in memory
// (capacity <= 0 means unbounded) and, when dir is non-empty, persisting
// every record as <dir>/<hash>.json so a restarted server stays warm.
func NewStore(capacity int, dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	return &Store{cap: capacity, ll: list.New(), byKey: map[string]*list.Element{}, dir: dir}, nil
}

// Get returns the cached record for key.  A memory miss falls through
// to the disk tier (when configured) and promotes its hit into memory.
func (s *Store) Get(key string) (harness.Record, bool) {
	rec, _, ok := s.lookup(key, true, nil)
	return rec, ok
}

// GetJSON is Get for a reader that wants the record's bytes and knows
// the job j that key hashes: it returns harness.RecordJSON of the
// cached record, encoded on the entry's first such read and kept with
// it, so a warm record costs a copy, not an encode.  Counting, LRU
// touch and disk promotion are Get's; a disk file that does not name j
// is a miss (see lookup).
func (s *Store) GetJSON(key string, j *harness.Job) ([]byte, bool, error) {
	rec, frag, ok := s.lookup(key, true, j)
	if !ok || frag != nil {
		return frag, ok, nil
	}
	frag, err := harness.RecordJSON(rec)
	if err != nil {
		return nil, true, err
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		if e := el.Value.(*storeEntry); e.rec == rec {
			e.json = frag
		}
	}
	s.mu.Unlock()
	return frag, true, nil
}

// lookup is Get with optional counting: the server's cold-path flights
// re-probe keys their request already counted a miss for, and must not
// skew the hit-rate counters doing so.  It also returns the entry's
// kept JSON fragment, nil until a GetJSON has encoded it.  A record
// read off disk is kept only if it names job j (harness.Job.Names), or
// any job when j is nil; the memory tier holds only what Put stored.
func (s *Store) lookup(key string, count bool, j *harness.Job) (harness.Record, []byte, bool) {
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		e := el.Value.(*storeEntry)
		rec, frag := e.rec, e.json
		if count {
			s.hits++
		}
		s.mu.Unlock()
		return rec, frag, true
	}
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		if rec, ok := s.load(dir, key, j); ok {
			s.mu.Lock()
			s.insert(key, rec)
			if count {
				s.hits++
				s.diskHits++
			}
			s.mu.Unlock()
			return rec, nil, true
		}
	}
	if count {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
	}
	return harness.Record{}, nil, false
}

// Put caches the record under key in memory and, when persistence is
// configured, on disk, and reports whether key was new to the memory
// tier.  A disk write failure degrades the store to memory-only (logged
// once) instead of surfacing to the caller.
func (s *Store) Put(key string, rec harness.Record) bool {
	s.mu.Lock()
	added := s.insert(key, rec)
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		if err := s.save(dir, key, rec); err != nil {
			s.disableDisk(err)
		}
	}
	return added
}

// disableDisk abandons the disk tier after a failed write: later Puts
// and Gets skip it entirely.
func (s *Store) disableDisk(err error) {
	s.mu.Lock()
	dir := s.dir
	s.dir, s.diskDisabled = "", true
	s.mu.Unlock()
	if dir != "" { // else a concurrent write failed first and logged
		log.Printf("serve: disk cache write under %s failed (%v); degrading to memory-only", dir, err)
	}
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:      s.ll.Len(),
		Hits:         s.hits,
		DiskHits:     s.diskHits,
		Misses:       s.misses,
		Evictions:    s.evictions,
		DiskDisabled: s.diskDisabled,
	}
}

// insert adds or refreshes an entry, enforces the capacity bound and
// reports whether the entry is new.  Caller holds s.mu.
func (s *Store) insert(key string, rec harness.Record) bool {
	if el, ok := s.byKey[key]; ok {
		s.ll.MoveToFront(el)
		if e := el.Value.(*storeEntry); e.rec != rec {
			e.rec, e.json = rec, nil
		}
		return false
	}
	s.byKey[key] = s.ll.PushFront(&storeEntry{key: key, rec: rec})
	if s.cap > 0 {
		for s.ll.Len() > s.cap {
			el := s.ll.Back()
			s.ll.Remove(el)
			delete(s.byKey, el.Value.(*storeEntry).key)
			s.evictions++
		}
	}
	return true
}

// cachePath maps a spec hash to its persistence file.  Hashes are
// lowercase hex by construction; anything else is rejected so a
// hand-crafted key can never escape the cache directory.
func cachePath(dir, key string) (string, bool) {
	if key == "" || strings.Trim(key, "0123456789abcdef") != "" {
		return "", false
	}
	return filepath.Join(dir, key+".json"), true
}

func (s *Store) load(dir, key string, j *harness.Job) (harness.Record, bool) {
	p, ok := cachePath(dir, key)
	if !ok {
		return harness.Record{}, false
	}
	// A missing or corrupt file is a miss, and so is one that decodes
	// but names no job (null, {}, a partial object) or another job than j.
	var rec harness.Record
	data, err := os.ReadFile(p)
	if err != nil || json.Unmarshal(data, &rec) != nil || rec.App == "" || rec.Backend == "" || rec.Scenario == "" || rec.Procs < 1 || j != nil && !j.Names(rec) {
		return harness.Record{}, false
	}
	return rec, true
}

// save persists a record as a JSON file, written to a temp name and
// renamed so concurrent readers never observe a torn write.  The
// returned error is the caller's signal to degrade the disk tier.
func (s *Store) save(dir, key string, rec harness.Record) error {
	p, ok := cachePath(dir, key)
	if !ok {
		return nil // unhashlike key: nothing to persist, not a disk fault
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil // unserializable record is not a disk fault
	}
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
