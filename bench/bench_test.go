package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/harness"
)

// These tests cover the benchmark's own arithmetic and its contract
// with the driver; none of them launches a workload.

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// Two passes of a grid workload: the 99th percentile is the slower one.
	if got := percentile([]float64{4.2, 4.9}, 99); got != 4.9 {
		t.Errorf("percentile of two = %v, want 4.9", got)
	}
}

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{19, 0, false}, // 9 beyond the median
		{20, 50, true}, // exactly 10 beyond the median
		{99, 50, true}, // p90 would leave 9
		{100, 90, true},
		{999, 90, true}, // p99 would leave 9
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		p, v, ok := topPercentile(seq(c.n))
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.wantP, c.ok)
		}
		if ok && float64(c.n)-v < 10 {
			t.Errorf("n=%d: p%v = %v leaves fewer than ten samples beyond it", c.n, p, v)
		}
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Layer: "harness", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Layer: "tmk", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Layer: "tmk", Start: ms(30), End: ms(60)},     // overlaps span 2: concurrent jobs
		{ID: 4, Parent: 1, Layer: "pvm", Start: ms(90), End: ms(120)},    // sticks out of the parent
		{ID: 5, Parent: 2, Layer: "vnet", Start: ms(10), End: ms(15)},    // grandchild: not the root's business
		{ID: 6, Parent: 1, Layer: "pvm", Start: ms(35), End: ms(38)},     // inside covered time
		{ID: 7, Parent: 9, Layer: "serve", Start: ms(0), End: ms(7)},     // parent not recorded
		{ID: 8, Parent: 0, Layer: "serve", Start: ms(200), End: ms(200)}, // empty
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 40 * time.Millisecond, // 100 - [10,60) - [90,100)
		2: 25 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
		6: 3 * time.Millisecond,
		7: 7 * time.Millisecond,
		8: 0,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byLayer := layerSelfTimes(spans)
	if byLayer["tmk"] != 55*time.Millisecond || byLayer["harness"] != 40*time.Millisecond {
		t.Errorf("layer self times = %v", byLayer)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, 0, "serve", "request", "")
	if id != 0 || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Error("nil tracer must be inert")
	}
	live := newTracer()
	a := live.begin(1, 0, "serve", "request", "")
	b := live.begin(1, a, "harness", "resolve", "")
	live.end(b)
	if got := live.snapshot(); len(got) != 1 || got[0].Name != "resolve" || got[0].Parent != a {
		t.Errorf("open spans must not be reported: %+v", got)
	}
}

func TestLayerOfStack(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"runtime callee lands on its caller's package",
			[]string{"runtime.memclrNoHeapPointers", "runtime.growslice", "repro/internal/tmk.makeDiff", "repro/internal/tmk.(*Proc).Barrier", "repro/internal/apps/sor.(*App).TMK"}, "tmk"},
		{"app body", []string{"repro/internal/apps/tsp.recursiveSolve", "repro/internal/apps/tsp.(*App).Seq", "repro/internal/core.RunSeq.func1"}, "apps"},
		{"inlined accessor is the innermost frame",
			[]string{"repro/internal/tmk.F64Array.At", "repro/internal/apps/sor.(*App).TMK", "repro/internal/sim.(*Engine).Spawn.func1"}, "tmk"},
		{"gc background worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{"scheduler idle", []string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "runtime"},
		{"benchmark's own client", []string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, "other"},
		{"benchmark frames under a product call still go to the product",
			[]string{"encoding/json.(*encodeState).marshal", "repro/internal/harness.WriteJSON", "main.probeHarness"}, "harness"},
		{"product helper package is charged to its caller",
			[]string{"repro/internal/stats.Mean", "repro/internal/harness.RenderTable2"}, "harness"},
		{"empty", nil, "other"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	shares := cpuShares([]stackSample{
		{[]string{"repro/internal/tmk.makeDiff"}, 6},
		{[]string{"runtime.mallocgc", "repro/internal/vnet.(*Network).alloc"}, 3},
		{[]string{"runtime.gcBgMarkWorker"}, 1},
	})
	total := 0.0
	for _, l := range layers {
		total += shares[l]
	}
	if math.Abs(total-1) > 1e-12 || shares["tmk"] != 0.6 || shares["vnet"] != 0.3 || shares["runtime"] != 0.1 {
		t.Errorf("shares = %v (sum %v)", shares, total)
	}
	for _, l := range layers {
		if _, ok := cpuShares(nil)[l]; !ok {
			t.Errorf("layer %s missing from an empty profile's shares", l)
		}
	}
}

// Minimal protobuf writer for the profile decoder's test.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
func pbInt(b []byte, field int, v uint64) []byte { return pbVarint(pbVarint(b, uint64(field)<<3), v) }
func pbBytes(b []byte, field int, data []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(data))), data...)
}

func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "runtime.memmove", "repro/internal/tmk.F64Array.At", "repro/internal/apps/sor.(*App).TMK", "runtime.gcBgMarkWorker"}
	var p []byte
	p = pbBytes(p, 1, pbInt(pbInt(nil, 1, 1), 2, 2)) // sample_type: samples/count
	// Sample 1: packed location ids [1, 2], values [7, 70000000].
	p = pbBytes(p, 2, pbBytes(pbBytes(nil, 1, []byte{1, 2}), 2, pbVarint(pbVarint(nil, 7), 70000000)))
	// Sample 2: unpacked location id 3, value 2.
	p = pbBytes(p, 2, pbInt(pbInt(nil, 1, 3), 2, 2))
	line := func(fn uint64) []byte { return pbInt(pbInt(nil, 1, fn), 2, 42) }
	p = pbBytes(p, 4, pbBytes(pbInt(nil, 1, 1), 4, line(1)))                       // location 1: memmove
	p = pbBytes(p, 4, pbBytes(pbBytes(pbInt(nil, 1, 2), 4, line(2)), 4, line(3)))  // location 2: At inlined into TMK
	p = pbBytes(p, 4, pbBytes(pbInt(pbInt(nil, 1, 3), 3, 0xdeadbeef), 4, line(4))) // location 3: with an address
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5, 4: 6} {
		p = pbBytes(p, 5, pbInt(pbInt(nil, 1, id), 2, name))
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	p = pbInt(p, 9, 12345) // time_nanos: a field the decoder skips
	p = append(p, 10<<3|1) // a fixed64 field it skips too
	p = append(p, make([]byte, 8)...)

	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(p)
	zw.Close()
	for name, data := range map[string][]byte{"plain": p, "gzip": zipped.Bytes()} {
		got, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []stackSample{
			{[]string{"runtime.memmove", "repro/internal/tmk.F64Array.At", "repro/internal/apps/sor.(*App).TMK"}, 7},
			{[]string{"runtime.gcBgMarkWorker"}, 2},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: samples = %+v, want %+v", name, got, want)
		}
		if shares := cpuShares(got); math.Abs(shares["tmk"]-7.0/9) > 1e-12 || math.Abs(shares["runtime"]-2.0/9) > 1e-12 {
			t.Errorf("%s: shares = %v", name, shares)
		}
	}
	if _, err := parseProfile([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Error("truncated profile must be an error")
	}
}

func takeKeys(s *stream, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s.take().key()
	}
	return out
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	catalog := readCatalog()
	mk := map[string]func(seed int64) *stream{
		"read":  func(seed int64) *stream { return readStream(seed, catalog) },
		"churn": func(seed int64) *stream { return churnStream(seed, churnHot(), churnTailOrder(seed)) },
	}
	for name, f := range mk {
		a, b, c := takeKeys(f(7), 500), takeKeys(f(7), 500), takeKeys(f(8), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same stream", name)
		}
	}
	// Every seed sends the same mix: one cycle is a permutation of the catalog.
	seen := map[string]int{}
	for _, k := range takeKeys(readStream(3, catalog), 2*len(catalog)) {
		seen[k]++
	}
	for _, r := range catalog {
		if seen[r.key()] != 2 {
			t.Errorf("read stream sent %s %d times in two cycles", r.key(), seen[r.key()])
		}
	}
}

func TestChurnStreamShape(t *testing.T) {
	hot, tail := churnHot(), churnTailOrder(11)
	isHot := map[string]bool{}
	for _, r := range hot {
		isHot[r.key()] = true
	}
	first := map[string]int{} // tail key -> block of its first request
	s := churnStream(11, hot, tail)
	for block := 0; block < 200; block++ {
		nHot := 0
		for _, k := range takeKeys(s, 10) {
			if isHot[k] {
				nHot++
				continue
			}
			if at, ok := first[k]; ok {
				if block-at != churnLag {
					t.Fatalf("block %d revisits %s first sent in block %d; want a lag of %d", block, k, at, churnLag)
				}
			} else {
				first[k] = block
			}
		}
		if nHot != 8 {
			t.Fatalf("block %d has %d hot requests, want 8", block, nHot)
		}
	}
	// The first churnLag revisits hit selections the set-up pre-warmed.
	for i := 0; i < churnLag; i++ {
		if _, ok := first[tail[i].key()]; !ok {
			t.Fatalf("pre-warmed tail entry %d never requested", i)
		}
	}
	if s.exhausted {
		t.Error("200 blocks must not exhaust the tail")
	}
	// A server far faster than the tail was sized for runs it out; the
	// stream says so instead of passing cached selections off as new.
	for block := 200; block < len(tail); block++ {
		takeKeys(s, 10)
	}
	if !s.exhausted {
		t.Error("a stream that used the whole tail must report it")
	}
}

// TestChurnTailIsColdWork: every tail selection resolves, and no two of
// them (nor a tail and a hot selection) share a job, so the first
// request of a tail selection is always computed, never found.
func TestChurnTailIsColdWork(t *testing.T) {
	tail := churnTail()
	// Five times the 490 entries a run reaches on the reference host.
	if len(tail) < 5*490 {
		t.Errorf("tail has %d selections", len(tail))
	}
	owner := map[string]string{}
	records := 0
	for _, r := range append(churnHot(), tail...) {
		scale := 0.01
		if r.Sel.Scale > 0 {
			scale = r.Sel.Scale
		}
		g, err := r.Sel.harnessSelection().Resolve(scale)
		if err != nil {
			t.Fatalf("%s: %v", r.key(), err)
		}
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatalf("%s: %v", r.key(), err)
		}
		if len(owner) > 0 && len(r.Sel.Apps) == 1 { // a tail selection
			records += len(jobs)
			for _, j := range jobs {
				h := harness.SpecHash(j)
				if prev, ok := owner[h]; ok {
					t.Fatalf("%s shares a job with %s", r.key(), prev)
				}
				owner[h] = r.key()
			}
			continue
		}
		for _, j := range jobs { // hot selections overlap each other on purpose
			owner[harness.SpecHash(j)] = r.key()
		}
	}
	if records < 20*churnCapacity {
		t.Errorf("tail has %d records, memory tier %d", records, churnCapacity)
	}
	t.Logf("tail: %d selections, %d records", len(tail), records)
}

func TestDigestMismatchFailsThePass(t *testing.T) {
	res := &result{}
	res.tallyPass(1, 12, "aaaa", "aaaa")
	res.tallyPass(2, 12, "bbbb", "aaaa")
	res.tallyPass(3, 12, "aaaa", "aaaa")
	if res.Attempted != 36 || res.Failed != 12 {
		t.Errorf("attempted=%d failed=%d, want 36 and 12", res.Attempted, res.Failed)
	}
	ref := &bodies{ref: map[string][]byte{}}
	if !ref.check("/v1/grid?a", []byte("cold")) || !ref.check("/v1/grid?a", []byte("cold")) {
		t.Error("equal bodies must pass")
	}
	if ref.check("/v1/grid?a", []byte("warm but different")) {
		t.Error("a warm body that differs from the cold one must fail")
	}
	if !ref.check("/v1/grid?b", []byte("other")) {
		t.Error("first body of another selection must pass")
	}
}

func TestPassCountAndBlocks(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	for _, c := range []struct {
		first float64
		want  int
	}{{4.8, 2}, {5.1, 2}, {6.6, 2}, {6.7, 1}, {30, 1}, {3.9, 3}} {
		if got := passCount(sec(10), sec(c.first)); got != c.want {
			t.Errorf("passCount(10s, %vs) = %d, want %d", c.first, got, c.want)
		}
	}
	done := []float64{1, 2, 3, 4, 5, 6, 7}
	if got := blockSeconds(done, 3); !reflect.DeepEqual(got, []float64{3, 3}) {
		t.Errorf("blocks = %v", got)
	}
	if got := blockSeconds(done[:2], 4); !reflect.DeepEqual(got, []float64{4}) {
		t.Errorf("short run must extrapolate one block, got %v", got)
	}
}

func TestWorsening(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worsening(lower, 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11 worsens by %v", got)
	}
	if got := worsening(higher, 100, 90); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 90 worsens by %v", got)
	}
	if worsening(lower, 10, 9) >= 0 || worsening(higher, 100, 110) >= 0 {
		t.Error("an improvement is a negative worsening")
	}
	// A/A judges both directions: a slow set A is the same noise as a slow set B.
	if got := apart(lower, 14, 10); math.Abs(got-0.4) > 1e-12 || got != apart(lower, 10, 14) {
		t.Errorf("apart(14, 10) = %v, want 0.4 in either order", got)
	}
	if got := apart(higher, 100, 140); math.Abs(got-40.0/140) > 1e-12 {
		t.Errorf("higher-is-better 100 and 140 are %v apart, want 40/140 (a share of the better one)", got)
	}
}

func TestSelectionRenderings(t *testing.T) {
	s := selection{Apps: []string{"sor-zero", "3d-fft"}, Backends: []string{"tmk", "pvm"}, Scenarios: []string{"bigp"}, NProcs: []int{64, 256}, Scale: 0.02}
	wantCLI := []string{"-apps", "sor-zero,3d-fft", "-backends", "tmk,pvm", "-scenarios", "bigp", "-nprocs", "64,256"}
	if got := s.cliArgs(); !reflect.DeepEqual(got, wantCLI) {
		t.Errorf("cliArgs = %v", got)
	}
	if got, want := s.query(), "apps=sor-zero%2C3d-fft&backends=tmk%2Cpvm&nprocs=64%2C256&scale=0.02&scenarios=bigp"; got != want {
		t.Errorf("query = %s, want %s", got, want)
	}
	if n, err := countRecords([]byte(`[{"app":"EP"},{"app":"TSP"}]`)); err != nil || n != 2 {
		t.Errorf("countRecords = %d, %v", n, err)
	}
}

// TestManifest pins BENCHMARK.json to the tables in manifest.go and the
// tables to the driver's limits.
func TestManifest(t *testing.T) {
	want := manifestJSON()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 || len(want) > 64<<10 {
		t.Errorf("manifest has %d keys and %d bytes", len(doc), len(want))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is required")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d", runSeconds)
	}
}

// TestResultLineHasExactlyTheDeclaredMetrics: a traced run reports every
// per-layer metric (0 when the workload does not exercise it) and
// nothing else, an untraced run every end-to-end metric.
func TestResultLineHasExactlyTheDeclaredMetrics(t *testing.T) {
	res := &result{Attempted: 10, Metrics: map[string]float64{"wall_s": 1.5, "tmk.fault_round_us": 20, "not.declared": 1}}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		var doc struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(res.line(defs)), &doc); err != nil {
			t.Fatal(err)
		}
		if !doc.Correct || doc.Attempted != 10 || doc.Failed != 0 || len(doc.Metrics) != len(defs) {
			t.Errorf("line = %+v", doc)
		}
		for _, d := range defs {
			if m, ok := doc.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("metric %s missing or with unit %q", d.Name, m.Unit)
			}
		}
	}
	res.Failed = 1
	if bytes.Contains([]byte(res.line(endToEnd)), []byte(`"correct":true`)) {
		t.Error("a run with failed operations is not correct")
	}
}
