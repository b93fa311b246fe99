package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// progressGrid is a small multi-app, multi-backend grid with a baseline
// in it, so the enumeration exercises the dedup path too.
func progressGrid(t *testing.T, workers int, progress func(int, Record)) []Record {
	t.Helper()
	apps := Apps(0.01)
	recs, err := Grid{
		Apps:      []core.App{Find(apps, "EP"), Find(apps, "SOR-Nonzero")},
		Backends:  core.StandardBackends(),
		Scenarios: BaseScenarios(2, 4),
		Workers:   workers,
		Progress:  progress,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestGridProgressSerialVsPool pins the progress-callback contract the
// serve API streams over: the serial path reports every job in
// enumeration order, the worker pool reports the exact same (index,
// record) set (order unspecified, invocations serialized), and the
// returned slices stay byte-identical.
func TestGridProgressSerialVsPool(t *testing.T) {
	type seen struct {
		order []int
		byIdx map[int]Record
	}
	collect := func(s *seen) func(int, Record) {
		s.byIdx = map[int]Record{}
		return func(i int, rec Record) {
			// Invocations are serialized by contract; concurrent calls
			// would race on these writes and trip -race.
			s.order = append(s.order, i)
			if _, dup := s.byIdx[i]; dup {
				panic(fmt.Sprintf("progress index %d reported twice", i))
			}
			s.byIdx[i] = rec
		}
	}

	var serial, pooled seen
	serialRecs := progressGrid(t, 1, collect(&serial))
	pooledRecs := progressGrid(t, 4, collect(&pooled))

	if len(serial.order) != len(serialRecs) {
		t.Fatalf("serial progress reported %d jobs, grid returned %d", len(serial.order), len(serialRecs))
	}
	for k, i := range serial.order {
		if k != i {
			t.Fatalf("serial progress out of enumeration order: %v", serial.order)
		}
		if serial.byIdx[i] != serialRecs[i] {
			t.Fatalf("serial progress record %d differs from returned record", i)
		}
	}

	if len(pooled.byIdx) != len(serial.byIdx) {
		t.Fatalf("pool reported %d jobs, serial %d", len(pooled.byIdx), len(serial.byIdx))
	}
	for i, rec := range serial.byIdx {
		if pooled.byIdx[i] != rec {
			t.Fatalf("pool progress record %d differs from serial:\n  pool   %+v\n  serial %+v", i, pooled.byIdx[i], rec)
		}
	}

	var sb, pb bytes.Buffer
	if err := WriteJSON(&sb, serialRecs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&pb, pooledRecs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatal("serial and pooled grid output not byte-identical with progress enabled")
	}
}

// brokenWriter fails every write after the first n bytes — a stand-in
// for an HTTP client that hung up mid-stream.
type brokenWriter struct {
	n   int
	err error
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteRecordsPropagatesWriterErrors pins the satellite fix: both
// record writers must surface a broken sink as an error — WriteCSV via
// its per-row flush checks (csv.Writer otherwise buffers the failure
// past the rows that hit it), WriteJSON via its one Write.
func TestWriteRecordsPropagatesWriterErrors(t *testing.T) {
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{App: "app", Backend: "tmk", Scenario: "base", Procs: 8, TimeNS: int64(i)}
	}
	sentinel := errors.New("connection reset")

	for _, cut := range []int{0, 10, 200} {
		if err := WriteCSV(&brokenWriter{n: cut, err: sentinel}, recs); !errors.Is(err, sentinel) {
			t.Errorf("WriteCSV with sink broken after %d bytes: err = %v, want %v", cut, err, sentinel)
		}
		if err := WriteJSON(&brokenWriter{n: cut, err: sentinel}, recs); !errors.Is(err, sentinel) {
			t.Errorf("WriteJSON with sink broken after %d bytes: err = %v, want %v", cut, err, sentinel)
		}
	}

	// A healthy sink still round-trips cleanly.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatalf("WriteCSV on a healthy sink: %v", err)
	}
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatalf("WriteJSON on a healthy sink: %v", err)
	}
}

// TestWriteJSONMatchesEncoder pins the fragment encoder to the bytes a
// two-space indenting json.Encoder produces for the same records — what
// WriteJSON was before it was built on RecordJSON and JoinRecordJSON,
// and what every cached body and records_sha256 digest was made of.
// The records cover HTML-escaped and quoted strings and every omitempty
// field both zero and non-zero; the lengths cover nil, [], one and many.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	full := Record{
		App: "<a&b>", Figure: 7, Problem: "64 \"bodies\" \\ 1.5e3 é\u2028\t", Backend: "tmk-sc", Scenario: "loss=0.05", Procs: 8,
		TimeNS: 1234567890123, Seconds: 1234.567890123, Messages: 1 << 40, Bytes: 1<<62 + 1,
		Dropped: 3, Retrans: 4, Timeouts: 5,
		Faults: 6, DiffRequests: 7, DiffsApplied: 8, DiffBytes: 9, LockWaitNS: 10, BarrierWaitNS: 11,
	}
	sparse := Record{App: "EP", Backend: "seq", Scenario: "base", Procs: 1, Seconds: 1e-9}
	tiny := Record{Seconds: 1e21, TimeNS: -1}
	var many []Record
	for i := 0; i < 40; i++ {
		r := []Record{full, sparse, tiny}[i%3]
		r.TimeNS += int64(i)
		r.Seconds /= float64(i + 1)
		many = append(many, r)
	}
	for _, recs := range [][]Record{nil, {}, {full}, {sparse}, {tiny, full}, many} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteJSON(&got, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d records (nil=%v):\nWriteJSON:\n%s\njson.Encoder:\n%s", len(recs), recs == nil, got.Bytes(), want.Bytes())
		}
		if recs == nil {
			continue
		}
		frags := make([][]byte, len(recs))
		for i, r := range recs {
			frag, err := RecordJSON(r)
			if err != nil {
				t.Fatal(err)
			}
			frags[i] = frag
		}
		if joined := JoinRecordJSON(nil, frags); !bytes.Equal(joined, want.Bytes()) {
			t.Fatalf("%d joined fragments differ from json.Encoder:\n%s", len(recs), joined)
		}
	}
	if _, err := RecordJSON(Record{Seconds: math.NaN()}); err == nil {
		t.Error("RecordJSON of an unencodable record: no error")
	}
}

// TestForEachCancel pins the cancellation contract: a context canceled
// mid-sweep stops the remaining calls and surfaces context.Canceled; a
// pre-canceled context runs nothing at all.
func TestForEachCancel(t *testing.T) {
	const n = 6

	t.Run("serial mid-sweep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var completed int
		err := ForEach(ctx, n, 1, func(i int) error {
			completed++
			cancel() // first completion pulls the plug
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled serial sweep: %v, want context.Canceled", err)
		}
		if completed != 1 {
			t.Fatalf("serial sweep completed %d calls after cancel, want 1", completed)
		}
	})

	t.Run("pool pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var completed atomic.Int64
		err := ForEach(ctx, n, 4, func(i int) error {
			completed.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled pool sweep: %v, want context.Canceled", err)
		}
		if got := completed.Load(); got != 0 {
			t.Fatalf("pre-canceled pool sweep completed %d calls, want 0", got)
		}
	})
}

// failFrom is a backend that records which jobs start (a job's scenario
// name is its index) and fails every job from index k on.
type failFrom struct {
	k       int
	mu      sync.Mutex
	started []int
}

func (b *failFrom) Name() string { return "fail-from" }

func (b *failFrom) Run(app core.App, sc core.Scenario) (core.Result, error) {
	i, err := strconv.Atoi(sc.Name)
	if err != nil {
		return core.Result{}, err
	}
	b.mu.Lock()
	b.started = append(b.started, i)
	b.mu.Unlock()
	if i >= b.k {
		return core.Result{}, fmt.Errorf("job %d failed", i)
	}
	return core.Result{}, nil
}

// TestRunJobsStopsAtFailure pins the pool's failure contract: once a job
// has failed no further job starts, and the error returned is that of the
// lowest failing index, job k's, even when a later job already running
// beside it fails first.  Since every job from k on fails, each of the
// pool's goroutines starts at most one job past k-1, so no job at index
// k+width or beyond may start, and a pool of one stops right after k.
func TestRunJobsStopsAtFailure(t *testing.T) {
	const n, k = 16, 5
	ep := Find(Apps(0.01), "EP")
	for _, width := range []int{1, 4} {
		b := &failFrom{k: k}
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{App: ep, Backend: b, Scenario: core.Scenario{Name: strconv.Itoa(i)}}
		}
		recs, err := RunJobs(jobs, width, nil)
		if want := fmt.Sprintf("EP/fail-from/%d n=0: job %d failed", k, k); err == nil || err.Error() != want {
			t.Fatalf("width %d: error %v, want %q", width, err, want)
		}
		if recs != nil {
			t.Errorf("width %d: a failed sweep returned %d records", width, len(recs))
		}
		slices.Sort(b.started)
		if len(b.started) < k+1 || b.started[k] != k || b.started[len(b.started)-1] >= k+width {
			t.Errorf("width %d: started jobs %v, want all of 0..%d and none from %d on", width, b.started, k, k+width)
		}
	}
}

// panicky is a backend whose every run panics, as a model bug would.
type panicky struct{}

func (panicky) Name() string { return "boom" }

func (panicky) Run(core.App, core.Scenario) (core.Result, error) { panic("model bug") }

// TestJobRunRecoversPanic: a panicking run is the job's error, marked
// ErrJobPanicked and naming the job, so the pool goroutine or fleet
// worker that ran it survives.
func TestJobRunRecoversPanic(t *testing.T) {
	j := Job{App: Find(Apps(0.01), "EP"), Backend: panicky{}, Scenario: core.Base(2)}
	rec, err := j.Run()
	if !errors.Is(err, ErrJobPanicked) || err.Error() != "EP/boom/base n=2: job panicked: model bug" {
		t.Fatalf("Run error %v, want ErrJobPanicked naming the job and the panic", err)
	}
	if rec != (Record{}) {
		t.Errorf("a panicked job returned %+v", rec)
	}
}
