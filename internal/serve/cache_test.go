package serve

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func rec(n int64) harness.Record {
	return harness.Record{App: "app", Backend: "tmk", Scenario: "base", Procs: 8, TimeNS: n}
}

// key returns a syntactically valid (hex) test key.
func key(s string) string { return strings.Repeat("0", 8) + hexish(s) }

func hexish(s string) string {
	const digits = "0123456789abcdef"
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = digits[int(s[i])%16]
	}
	return string(out)
}

// TestStoreLRUEviction pins the capacity bound: least-recently-used
// entries fall out first, touched entries survive, and the eviction
// counter advances.
func TestStoreLRUEviction(t *testing.T) {
	s, err := NewStore(2, "")
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key("a"), rec(1))
	s.Put(key("b"), rec(2))
	if _, ok := s.Get(key("a")); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before capacity reached")
	}
	s.Put(key("c"), rec(3)) // evicts b
	if _, ok := s.Get(key("b")); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if r, ok := s.Get(key("a")); !ok || r != rec(1) {
		t.Fatalf("recently used entry a evicted (ok=%v rec=%+v)", ok, r)
	}
	if r, ok := s.Get(key("c")); !ok || r != rec(3) {
		t.Fatalf("newest entry c missing (ok=%v rec=%+v)", ok, r)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

// TestStoreDiskPersistence checks the disk tier: a fresh store over the
// same directory answers from the persisted files (counted as disk
// hits), corrupt files degrade to misses, and keys that are not hex
// hashes never touch the filesystem.
func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	s1.Put(key("a"), rec(7))

	s2, err := NewStore(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := s2.Get(key("a"))
	if !ok || r != rec(7) {
		t.Fatalf("restarted store cold: ok=%v rec=%+v", ok, r)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("disk hit not counted: %+v", st)
	}
	// Promoted into memory: the second Get is a memory hit.
	if _, ok := s2.Get(key("a")); !ok {
		t.Fatal("promoted entry missing")
	}
	if st = s2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("promotion not effective: %+v", st)
	}

	// Eviction does not erase the disk tier: squeeze the entry out of a
	// tiny store and find it again on disk.
	s3, err := NewStore(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(key("a")); !ok {
		t.Fatal("disk entry missing in tiny store")
	}
	s3.Put(key("b"), rec(8)) // evicts a from memory
	if _, ok := s3.Get(key("a")); !ok {
		t.Fatal("evicted entry lost from disk tier")
	}

	// Corrupt file, or one that decodes to no job's record: miss, not
	// an error.
	bad := key("x")
	for _, data := range []string{"{not json", "null", "{}", `{"app":"app","procs":8}`} {
		if err := os.WriteFile(filepath.Join(dir, bad+".json"), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, ok := s2.Get(bad); ok {
			t.Fatalf("persisted %s served as a hit: %+v", data, r)
		}
	}

	// Non-hex keys must not reach the filesystem.
	s2.Put("../escape", rec(9))
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); err == nil {
		t.Fatal("non-hex key escaped the cache directory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "escape") {
			t.Fatalf("non-hex key persisted as %q", e.Name())
		}
	}
}

// TestStoreDegradesOnDiskWriteFailure pins the disk-tier failure
// policy: when a write fails mid-flight (here the cache directory is
// replaced by a regular file, standing in for ENOSPC or a yanked
// mount), the store logs once, flags itself degraded, and keeps
// serving from memory — no error ever reaches a Put caller.
func TestStoreDegradesOnDiskWriteFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := NewStore(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	log.SetOutput(&logBuf)
	defer log.SetOutput(os.Stderr)
	logged := func() int { return strings.Count(logBuf.String(), "degrading to memory-only") }

	s.Put(key("a"), rec(1))
	if _, err := os.Stat(filepath.Join(dir, key("a")+".json")); err != nil {
		t.Fatalf("healthy disk tier did not persist: %v", err)
	}

	// Yank the directory out from under the store.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	s.Put(key("b"), rec(2)) // write fails; store degrades
	if st := s.Stats(); !st.DiskDisabled {
		t.Fatal("store did not flag itself disk-disabled after a failed write")
	}
	if n := logged(); n != 1 {
		t.Fatalf("degrade logged %d times, want exactly once: %s", n, logBuf.String())
	}
	if got, ok := s.Get(key("b")); !ok || got.TimeNS != 2 {
		t.Fatal("memory tier lost the record whose disk write failed")
	}
	if got, ok := s.Get(key("a")); !ok || got.TimeNS != 1 {
		t.Fatal("memory tier lost the pre-degrade record")
	}

	// Further writes stay memory-only and quiet.
	s.Put(key("c"), rec(3))
	if n := logged(); n != 1 {
		t.Fatalf("failed writes logged %d times, want exactly once: %s", n, logBuf.String())
	}
	if _, ok := s.Get(key("c")); !ok {
		t.Fatal("degraded store dropped a new record")
	}
}

// TestNewStoreUnwritableDir pins startup behavior: an unusable
// -cache-dir (a path under a regular file) is a hard error at
// construction, not a silent memory-only server.
func TestNewStoreUnwritableDir(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(0, filepath.Join(file, "cache")); err == nil {
		t.Fatal("NewStore accepted a cache dir under a regular file")
	}
}

// TestStoreGetJSON pins the pre-encoded read: GetJSON returns exactly
// harness.RecordJSON of what Get returns, counts and touches as Get
// does (memory hit, disk hit and promotion, miss), keeps the fragment
// across reads, and drops it when a Put changes the record.
func TestStoreGetJSON(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := func(r harness.Record) []byte {
		b, err := harness.RecordJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	getJSON := func(s *Store, k string) ([]byte, bool) {
		t.Helper()
		b, ok, err := s.GetJSON(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		return b, ok
	}

	if _, ok := getJSON(s, key("a")); ok {
		t.Fatal("empty store answered")
	}
	s.Put(key("a"), rec(1))
	s.Put(key("b"), rec(2))
	first, ok := getJSON(s, key("a")) // touches a: b becomes LRU
	if !ok || !bytes.Equal(first, want(rec(1))) {
		t.Fatalf("GetJSON(a) = %s, %v", first, ok)
	}
	again, _ := getJSON(s, key("a"))
	if &first[0] != &again[0] {
		t.Error("second GetJSON re-encoded instead of returning the kept fragment")
	}
	s.Put(key("a"), rec(1)) // same record: the fragment stays
	if again, _ = getJSON(s, key("a")); &first[0] != &again[0] {
		t.Error("a Put of the same record dropped the kept fragment")
	}
	s.Put(key("a"), rec(5)) // a different record under the key: it must not
	if got, _ := getJSON(s, key("a")); !bytes.Equal(got, want(rec(5))) {
		t.Fatalf("GetJSON after overwrite = %s, want the new record", got)
	}
	s.Put(key("c"), rec(3)) // evicts b, the least recently used
	if st := s.Stats(); st.Hits != 4 || st.Misses != 1 || st.DiskHits != 0 || st.Evictions != 1 {
		t.Fatalf("counters after memory reads: %+v", st)
	}
	if got, ok := getJSON(s, key("b")); !ok || !bytes.Equal(got, want(rec(2))) {
		t.Fatalf("evicted entry not read back from disk: %s, %v", got, ok)
	}
	if st := s.Stats(); st.Hits != 5 || st.DiskHits != 1 {
		t.Fatalf("disk read not counted as Get counts it: %+v", st)
	}
	if r, ok := s.Get(key("b")); !ok || r != rec(2) {
		t.Fatal("disk hit was not promoted into memory")
	}
}
