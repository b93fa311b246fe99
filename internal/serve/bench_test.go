package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// figureGrid is the 204-record figure selection (every app × seq, tmk,
// pvm at 1..8 processors): the request the benchmark's serve probe and
// most of its serve-read catalog are shaped like.
const figureGrid = "/v1/grid?backends=seq,tmk,pvm&scenarios=base&nprocs=1,2,3,4,5,6,7,8"

// sink is a reusable http.ResponseWriter that keeps nothing, so the
// benchmark below measures the handler and not a recorder's buffer.
type sink struct {
	header http.Header
	status int
	n      int
}

func (w *sink) Header() http.Header         { return w.header }
func (w *sink) WriteHeader(status int)      { w.status = status }
func (w *sink) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// warmFigure is a handler whose store already holds the figure grid,
// computed once however often the benchmark function is re-entered.
var warmFigure = sync.OnceValue(func() http.Handler {
	h := New(Options{Scale: 0.01, Workers: 2}).Handler()
	h.ServeHTTP(&sink{header: http.Header{}}, httptest.NewRequest(http.MethodGet, figureGrid, nil))
	return h
})

// warmRequest returns one warm figure-grid request through the handler,
// no sockets: a plan lookup, 204 store reads that return kept JSON
// fragments, one join, one write.  It returns the body's length.
func warmRequest(tb testing.TB) func() int {
	h := warmFigure()
	req := httptest.NewRequest(http.MethodGet, figureGrid, nil)
	w := &sink{header: http.Header{}}
	return func() int {
		clear(w.header)
		w.status, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("status %d", w.status)
		}
		return w.n
	}
}

// BenchmarkServeWarm is warmRequest's request.
func BenchmarkServeWarm(b *testing.B) {
	serve := warmRequest(b)
	b.SetBytes(int64(serve()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// A warm figure-grid request allocated 16.5k times and 1.35 MB when it
// rebuilt the registry and re-hashed and re-encoded every record, for a
// 62 KB body.  Measured when pinned: 26 allocations and 6.7 KB — the
// parsed query, the plan key, the 204-entry fragment list, the response
// headers — and nothing per record.  The bytes budget leaves room for
// one body: the joined body lives in a sync.Pool buffer, and under the
// race detector a Pool drops Puts at random, so some requests there
// allocate it afresh.
const (
	warmAllocBudget = 40
	warmBytesBudget = 96 << 10
)

// TestServeWarmAllocBudget pins the warm path's footprint: whatever a
// warm request does per record, it must not allocate per record.  The
// per-request counts do not depend on how many requests are measured,
// so a fixed 200 read what BenchmarkServeWarm reads, in a fraction of
// its second.
func TestServeWarmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed budget check")
	}
	serve := warmRequest(t)
	serve()
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		serve()
	}
	runtime.ReadMemStats(&after)
	if got := (after.Mallocs - before.Mallocs) / n; got > warmAllocBudget {
		t.Errorf("warm 204-record request allocates %d times, budget %d", got, warmAllocBudget)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > warmBytesBudget {
		t.Errorf("warm 204-record request allocates %d bytes, budget %d", got, warmBytesBudget)
	}
}
