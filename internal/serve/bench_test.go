package serve

import (
	"net/http"
	"net/http/httptest"
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

// BenchmarkServeWarm is one warm figure-grid request through the
// handler, no sockets: a plan lookup, 204 store reads that return kept
// JSON fragments, one join, one write.
func BenchmarkServeWarm(b *testing.B) {
	h := warmFigure()
	req := httptest.NewRequest(http.MethodGet, figureGrid, nil)
	w := &sink{header: http.Header{}}
	serve := func() int {
		clear(w.header)
		w.status, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
		return w.n
	}
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
// warm request does per record, it must not allocate per record.
func TestServeWarmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed budget check")
	}
	res := testing.Benchmark(BenchmarkServeWarm)
	if got := res.AllocsPerOp(); got > warmAllocBudget {
		t.Errorf("warm 204-record request allocates %d times, budget %d", got, warmAllocBudget)
	}
	if got := res.AllocedBytesPerOp(); got > warmBytesBudget {
		t.Errorf("warm 204-record request allocates %d bytes, budget %d", got, warmBytesBudget)
	}
}
