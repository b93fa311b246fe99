package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/harness"
	"repro/internal/serve"
)

// The traced run.  After (and apart from) the untraced end-to-end runs,
// one pass of the workload executes inside the benchmark process, with
// spans recorded around every call into a layer's public functions and
// the whole pass under a CPU profile that is attributed to layers.  A
// child run of the same workload beside it gives the untraced time (the
// difference is the tracing overhead) and the process-level figures only
// a child's rusage has.  The layer probes then run, so every traced run
// reports every per-layer metric; a metric the workload does not
// exercise reads 0.

// runTraced produces the per-layer metrics of one workload.
func (e *env) runTraced(w *workload, seed int64) (*result, error) {
	if _, err := e.build(); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}
	tr := newTracer()
	var err error
	switch w.Kind {
	case kindGrid:
		err = e.tracedGrid(w, tr, res)
	case kindServe:
		err = e.tracedServe(w, seed, tr, res)
	default:
		err = e.tracedFleet(w, tr, res)
	}
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(e)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		res.Metrics[name] = v
	}

	spans := tr.snapshot()
	res.Metrics["trace.spans"] = float64(len(spans))
	path := filepath.Join(e.out, "trace-"+w.Name+".json")
	if err := writeTrace(path, w.Name, spans); err != nil {
		return nil, err
	}
	res.notef("spans=%d written to %s", len(spans), path)
	self := layerSelfTimes(spans)
	var parts []string
	for _, l := range append(append([]string{}, layers...), "compute") {
		if d := self[l]; d > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.3fs", l, d.Seconds()))
		}
	}
	res.notef("span self time by layer: %s", strings.Join(parts, " "))
	shareSum := 0.0
	for _, l := range layers {
		shareSum += res.Metrics["cpu_share."+l]
	}
	res.notef("cpu_share.* sum=%.4f", shareSum)
	return res, nil
}

// measured is what profiling a piece of work yields.
type measured struct {
	Wall    time.Duration
	Shares  map[string]float64
	Samples int64
	AllocMB float64
	Mallocs float64
	GCShare float64
}

func cpuClass(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// profiled runs fn under the CPU profiler and the allocation counters.
func profiled(fn func() error) (measured, error) {
	var m measured
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gc0, cpu0 := cpuClass("/cpu/classes/gc/total:cpu-seconds"), cpuClass("/cpu/classes/total:cpu-seconds")-cpuClass("/cpu/classes/idle:cpu-seconds")
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return m, err
	}
	start := time.Now()
	err := fn()
	m.Wall = time.Since(start)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	runtime.GC() // the cpu classes are brought up to date at a GC cycle
	gc1, cpu1 := cpuClass("/cpu/classes/gc/total:cpu-seconds"), cpuClass("/cpu/classes/total:cpu-seconds")-cpuClass("/cpu/classes/idle:cpu-seconds")
	if err != nil {
		return m, err
	}
	m.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m.Mallocs = float64(after.Mallocs - before.Mallocs)
	if cpu1 > cpu0 {
		m.GCShare = (gc1 - gc0) / (cpu1 - cpu0)
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return m, err
	}
	for _, s := range samples {
		m.Samples += s.Count
	}
	m.Shares = cpuShares(samples)
	return m, nil
}

func (m measured) into(res *result) {
	for l, s := range m.Shares {
		res.Metrics["cpu_share."+l] = s
	}
	res.Metrics["runtime.alloc_mb"] = m.AllocMB
	res.Metrics["runtime.mallocs"] = m.Mallocs
	res.Metrics["runtime.gc_cpu_share"] = m.GCShare
	res.notef("traced pass: wall=%.4fs profile samples=%d alloc=%.1fMB mallocs=%.0f", m.Wall.Seconds(), m.Samples, m.AllocMB, m.Mallocs)
}

func (u usage) into(res *result, what string) {
	res.Metrics["runtime.peak_rss_mb"] = u.MaxRSSMB
	res.Metrics["runtime.sys_cpu_s"] = u.SysS
	res.Metrics["runtime.user_cpu_s"] = u.UserS
	res.notef("%s: user=%.2fs sys=%.2fs maxrss=%.0fMB", what, u.UserS, u.SysS, u.MaxRSSMB)
}

// backendLayer names the layer a job's time is charged to in spans: the
// system the backend adapts to, or the app body for the sequential run.
func backendLayer(backend string) string {
	switch {
	case strings.HasPrefix(backend, "tmk"):
		return "tmk"
	case strings.HasPrefix(backend, "pvm"):
		return "pvm"
	}
	return "apps"
}

func jobDetail(j harness.Job) string {
	return fmt.Sprintf("%s/%s/%s/%d", j.App.Name(), j.Backend.Name(), j.Scenario.Name, j.Scenario.Procs)
}

// resolveGrid is the first half of a pass: Selection.Resolve and
// Grid.Jobs for every selection of the workload.  Every call builds
// fresh app instances.
func resolveGrid(w *workload, tr *tracer, trace, pass int) ([][]harness.Job, error) {
	var sels [][]harness.Job
	for _, sel := range w.Grids {
		id := tr.begin(trace, pass, "harness", "resolve", "")
		g, err := sel.harnessSelection().Resolve(w.Scale)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin(trace, pass, "harness", "jobs", "")
		js, err := g.Jobs()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		sels = append(sels, js)
	}
	return sels, nil
}

// runGrid is the second half, the way `msvdsm -j 1 grid` does it: the
// jobs of each selection serially in enumeration order, then WriteJSON
// of its records.  check, when not nil, sees every finished job, outside
// the job's span.
func runGrid(sels [][]harness.Job, tr *tracer, trace, pass int, check func(harness.Job)) (out []byte, jobSpans []time.Duration, recs []harness.Record, err error) {
	var buf bytes.Buffer
	for _, js := range sels {
		first := len(recs)
		for _, j := range js {
			id := tr.begin(trace, pass, backendLayer(j.Backend.Name()), "job", jobDetail(j))
			start := time.Now()
			rec, err := j.Run()
			d := time.Since(start)
			tr.end(id)
			if err != nil {
				return nil, nil, nil, err
			}
			jobSpans, recs = append(jobSpans, d), append(recs, rec)
			if check != nil {
				check(j)
			}
		}
		id := tr.begin(trace, pass, "harness", "write_json", "")
		err = harness.WriteJSON(&buf, recs[first:])
		tr.end(id)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return buf.Bytes(), jobSpans, recs, nil
}

// tracedGrid: child reference pass, then one pass in this process —
// resolve, the sequential reference of every app, and the traced and
// profiled jobs with App.Check after each — and the workload's extras.
func (e *env) tracedGrid(w *workload, tr *tracer, res *result) error {
	childOut, childWall, _, ru, err := e.gridPass(w, 1)
	if err != nil {
		return err
	}
	ru.into(res, "child pass (untraced)")

	pass := tr.begin(1, 0, "harness", "pass", w.Name)
	sels, err := resolveGrid(w, tr, 1, pass)
	if err != nil {
		return err
	}
	var jobs []harness.Job
	for _, js := range sels {
		jobs = append(jobs, js...)
	}

	// Sequential reference of each app, run on the very instance the
	// pass will use and before the profile starts: the number
	// apps.seq_ms.<app>, the baseline of the host-overhead sums, and the
	// output App.Check compares every parallel output with.
	seqMS := map[core.App]float64{}
	for _, j := range jobs {
		if _, done := seqMS[j.App]; done || core.IsBaseline(j.Backend) {
			continue
		}
		id := tr.begin(1, pass, "apps", "seq-reference", j.App.Name())
		start := time.Now()
		_, err := harness.Job{App: j.App, Backend: core.Seq, Scenario: core.Base(1)}.Run()
		seqMS[j.App] = float64(time.Since(start)) / 1e6
		tr.end(id)
		if err != nil {
			return err
		}
		// Two selections may hold the same app (bigp-scale): the first
		// instance's time is the one reported.
		if name := "apps.seq_ms." + strings.ToLower(j.App.Name()); res.Metrics[name] == 0 {
			res.Metrics[name] = seqMS[j.App]
		}
	}

	var out []byte
	var spans []time.Duration
	var recs []harness.Record
	m, err := profiled(func() error {
		var err error
		out, spans, recs, err = runGrid(sels, tr, 1, pass, func(j harness.Job) {
			if core.IsBaseline(j.Backend) {
				return
			}
			if err := j.App.Check(); err != nil {
				res.Failed++
				res.notef("check %s: %v", jobDetail(j), err)
			}
		})
		return err
	})
	tr.end(pass)
	if err != nil {
		return err
	}
	m.into(res)
	res.Metrics["trace.overhead_ratio"] = (m.Wall.Seconds() - childWall.Seconds()) / childWall.Seconds()
	res.notef("untraced child pass wall=%.4fs (trace.overhead_ratio compares the in-process traced jobs and encoding with it)", childWall.Seconds())

	// Outputs: every parallel job was checked against its app's
	// sequential output as it finished; the pass as a whole must print
	// what the CLI printed.
	res.Attempted = len(jobs)
	if !bytes.Equal(out, childOut) {
		res.Failed = len(jobs)
		res.notef("in-process pass output differs from the child's stdout")
	}
	res.notef("records_sha256=%s", sha256Hex(out))
	byBackend := map[string][]float64{}
	var tmkOver, pvmOver, parallelUS, messages float64
	for i, j := range jobs {
		ms := float64(spans[i]) / 1e6
		byBackend[j.Backend.Name()] = append(byBackend[j.Backend.Name()], ms)
		if core.IsBaseline(j.Backend) {
			continue
		}
		switch backendLayer(j.Backend.Name()) {
		case "tmk":
			tmkOver += (ms - seqMS[j.App]) / 1e3
		case "pvm":
			pvmOver += (ms - seqMS[j.App]) / 1e3
		}
		parallelUS += ms * 1e3
		messages += float64(recs[i].Messages)
	}
	for _, b := range backendsTimed {
		res.Metrics["harness.job_ms."+b] = median(byBackend[b])
	}
	res.Metrics["tmk.host_overhead_s"] = tmkOver
	res.Metrics["pvm.host_overhead_s"] = pvmOver
	if messages > 0 {
		res.Metrics["harness.host_us_per_msg"] = parallelUS / messages
	}

	switch w.Name {
	case "table2-tmk":
		// The pool: the same pass with -j 2, as a child.
		_, wall2, _, _, err := e.gridPass(w, 2)
		if err != nil {
			return err
		}
		res.Metrics["harness.pool_speedup_j2"] = childWall.Seconds() / wall2.Seconds()
		res.notef("child pass with -j 2: wall=%.4fs", wall2.Seconds())
	case "bigp-scale":
		// A second pass in the same process inherits the first one's heap.
		start := time.Now()
		again, err := resolveGrid(w, nil, 0, 0)
		if err == nil {
			_, _, _, err = runGrid(again, nil, 0, 0, nil)
		}
		if err != nil {
			return err
		}
		d := time.Since(start)
		res.Metrics["harness.repass_ratio"] = d.Seconds() / m.Wall.Seconds()
		res.notef("second in-process pass: wall=%.4fs", d.Seconds())
	}
	return nil
}

// replayRequests is how many requests the traced serve replay sends.
const replayRequests = 800

// inProcessServer is the serve layer driven without HTTP.
type inProcessServer struct {
	srv   *serve.Server
	h     http.Handler
	store *serve.Store
	w     *sinkWriter
}

func newInProcessServer(w *workload, capacity int, dir string) (*inProcessServer, error) {
	store, err := serve.NewStore(capacity, dir)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Scale: w.Scale, Workers: 2, Store: store})
	return &inProcessServer{srv: srv, h: srv.Handler(), store: store, w: newSinkWriter()}, nil
}

// get serves one request and checks its status and body.
func (s *inProcessServer) get(tr *tracer, trace int, r request, ref *bodies, res *result) {
	id := tr.begin(trace, 0, "serve", "request", r.key())
	s.w.reset()
	s.h.ServeHTTP(s.w, httptest.NewRequest(http.MethodGet, r.key(), nil))
	tr.end(id)
	res.Attempted++
	if s.w.status != http.StatusOK || !ref.check(r.key(), s.w.body.Bytes()) {
		res.Failed++
		res.notef("request %s: status %d or body differs from its first body", r.key(), s.w.status)
	}
}

// statsOf flattens any stats struct through its JSON form, so the
// benchmark names JSON keys and not Go fields.
func statsOf(v any) map[string]float64 {
	out := map[string]float64{}
	if data, err := json.Marshal(v); err == nil {
		flattenNumbers("", data, out)
	}
	return out
}

// tracedServe: a short child run for the process figures, then the
// request stream replayed against the handler in-process — untraced,
// then traced and profiled — and the decomposition of a request into the
// harness and store calls it is made of.
func (e *env) tracedServe(w *workload, seed int64, tr *tracer, res *result) error {
	spec := newServeSpec(w, seed)
	ref := &bodies{ref: map[string][]byte{}}
	srv, cacheDir, err := e.startWarmServer(w, spec, ref, 0)
	if err != nil {
		return err
	}
	loop := closedLoop(srv.addr, spec.stream, ref, 2*time.Second)
	ru, err := srv.stop()
	os.RemoveAll(cacheDir)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = len(loop.LatMS), loop.Failed
	ru.into(res, fmt.Sprintf("child server, %d requests in 2s", len(loop.LatMS)))

	// Every replay gets a fresh server, store and stream, so all of them
	// send the same requests against the same state.
	replayDir := filepath.Join(e.out, "cache-"+w.Name+"-replay")
	defer os.RemoveAll(replayDir)
	replay := func(tr *tracer, trace int) (*inProcessServer, func() error, error) {
		dir := ""
		if spec.capacity > 0 {
			dir = replayDir
			os.RemoveAll(dir)
		}
		s, err := newInProcessServer(w, spec.capacity, dir)
		if err != nil {
			return nil, nil, err
		}
		spec := newServeSpec(w, seed)
		for _, r := range spec.prewarm {
			s.get(nil, 0, r, ref, res)
		}
		return s, func() error {
			for i := 0; i < replayRequests; i++ {
				s.get(tr, trace+i, spec.stream.take(), ref, res)
			}
			return nil
		}, nil
	}
	// Untraced, traced, untraced: the faster untraced replay is the
	// reference, so that warm-up and drift do not pass for overhead.
	untracedReplay := func() (time.Duration, error) {
		_, run, err := replay(nil, 0)
		if err != nil {
			return 0, err
		}
		d, _ := timed(func() { run() })
		return d, nil
	}
	untraced, err := untracedReplay()
	if err != nil {
		return err
	}
	s, run, err := replay(tr, 1)
	if err != nil {
		return err
	}
	m, err := profiled(run)
	if err != nil {
		return err
	}
	again, err := untracedReplay()
	if err != nil {
		return err
	}
	untraced = min(untraced, again)
	m.into(res)
	res.Metrics["trace.overhead_ratio"] = (m.Wall.Seconds() - untraced.Seconds()) / untraced.Seconds()
	res.notef("replay of %d requests in-process: untraced=%.4fs traced+profiled=%.4fs", replayRequests, untraced.Seconds(), m.Wall.Seconds())

	st := statsOf(s.srv.Stats())
	if total := st["hits"] + st["misses"]; total > 0 {
		res.Metrics["serve.hit_ratio"] = st["hits"] / total
	}
	res.Metrics["serve.evictions"] = st["evictions"]
	res.Metrics["serve.disk_hits"] = st["disk_hits"]

	// What a warm request is made of, called directly: resolve and
	// enumerate, hash every job, look every hash up, encode the records.
	for i, r := range spec.prewarm {
		if r.Path != "/v1/grid" {
			continue
		}
		trace := -1 - i
		root := tr.begin(trace, 0, "serve", "request-parts", r.key())
		id := tr.begin(trace, root, "harness", "resolve", "")
		scale := w.Scale
		if r.Sel.Scale > 0 {
			scale = r.Sel.Scale
		}
		g, err := r.Sel.harnessSelection().Resolve(scale)
		if err != nil {
			return err
		}
		jobs, err := g.Jobs()
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin(trace, root, "harness", "hash", "")
		hashes := make([]string, len(jobs))
		for k, j := range jobs {
			hashes[k] = harness.SpecHash(j)
		}
		tr.end(id)
		id = tr.begin(trace, root, "serve", "store", "")
		recs := make([]harness.Record, 0, len(jobs))
		for _, h := range hashes {
			if rec, ok := s.store.Get(h); ok {
				recs = append(recs, rec)
			}
		}
		tr.end(id)
		id = tr.begin(trace, root, "harness", "encode", "")
		err = harness.WriteJSON(io.Discard, recs)
		tr.end(id)
		tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// spanTransport records a worker's lease and complete round trips, and
// the time between a granted lease and its completion as the job.
type spanTransport struct {
	tr     *tracer
	trace  int
	parent int
	name   string

	mu  sync.Mutex
	job int // open job span, 0 when idle
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := req.URL.Path[strings.LastIndex(req.URL.Path, "/")+1:]
	if op == "complete" {
		t.mu.Lock()
		t.tr.end(t.job)
		t.job = 0
		t.mu.Unlock()
	}
	id := t.tr.begin(t.trace, t.parent, "dispatch", op, t.name)
	resp, err := http.DefaultTransport.RoundTrip(req)
	t.tr.end(id)
	if op == "lease" && err == nil && resp.StatusCode == http.StatusOK {
		t.mu.Lock()
		t.job = t.tr.begin(t.trace, t.parent, "compute", "job", t.name)
		t.mu.Unlock()
	}
	return resp, err
}

// fleetSweepInProcess runs coordinator, two workers and the sweep
// request inside this process, over real loopback HTTP.
func fleetSweepInProcess(w *workload, tr *tracer, trace int) ([]byte, map[string]float64, error) {
	dsp := dispatch.New(dispatch.Config{})
	defer dsp.Close()
	store, err := serve.NewStore(0, "")
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(serve.Options{Scale: w.Scale, Workers: 2, Store: store, Dispatcher: dsp})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sweep := tr.begin(trace, 0, "serve", "sweep", fleetSelection.query())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		wk := dispatch.NewWorker(dispatch.WorkerOptions{
			Coordinator: ts.URL,
			Name:        name,
			Client:      &http.Client{Transport: &spanTransport{tr: tr, trace: trace, parent: sweep, name: name}},
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.Run(ctx) // returns nil on a clean drain; a failed sweep shows in the body check
		}()
	}
	defer wg.Wait()
	defer cancel()
	for deadline := time.Now().Add(10 * time.Second); statsOf(dsp.Stats())["workers_live"] < fleetWorkers; {
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("in-process workers did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	status, body, err := httpGet(ts.URL + "/v1/grid?" + fleetSelection.query())
	tr.end(sweep)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("in-process sweep: status %d: %.200s", status, body)
	}
	return body, statsOf(srv.Stats()), err
}

// tracedFleet: one fleet sweep and one local sweep as children (the
// difference, per job, is what dispatch costs end to end), then the
// traced and profiled sweep with everything in this process.
func (e *env) tracedFleet(w *workload, tr *tracer, res *result) error {
	f, err := e.startFleet(w, 0)
	if err != nil {
		return err
	}
	fleetBody, fleetWall, err := f.sweep(fleetSelection)
	ru, stopErr := f.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	ru.into(res, "child fleet (coordinator + 2 workers, peaks summed)")

	local, err := e.startServer(w.Name+"-local", []string{"-scale", w.scaleArg(), "-j", fmt.Sprint(fleetWorkers)}, nil)
	if err != nil {
		return err
	}
	start := time.Now()
	status, localBody, err := httpGet(local.addr + "/v1/grid?" + fleetSelection.query())
	localWall := time.Since(start)
	if _, stopErr := local.stop(); err == nil {
		err = stopErr
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("local sweep: status %d", status)
	}
	if err != nil {
		return err
	}
	jobs, err := countRecords(localBody)
	if err != nil {
		return err
	}
	res.Metrics["dispatch.overhead_us_per_job"] = (fleetWall - localWall).Seconds() * 1e6 / float64(jobs)
	res.notef("child sweeps of %d jobs: fleet=%.4fs local(-j %d)=%.4fs", jobs, fleetWall.Seconds(), fleetWorkers, localWall.Seconds())

	var body []byte
	var st map[string]float64
	m, err := profiled(func() error {
		var err error
		body, st, err = fleetSweepInProcess(w, tr, 1)
		return err
	})
	if err != nil {
		return err
	}
	m.into(res)
	res.Metrics["trace.overhead_ratio"] = (m.Wall.Seconds() - fleetWall.Seconds()) / fleetWall.Seconds()
	res.Metrics["dispatch.leases_per_job"] = st["dispatch.leases_granted"] / float64(jobs)
	res.Metrics["dispatch.retries"] = st["dispatch.reassigned"]
	res.Metrics["dispatch.hedged"] = st["dispatch.hedged"]
	res.Metrics["dispatch.fallbacks"] = st["fallbacks"]

	res.Attempted = 2 * jobs
	for name, b := range map[string][]byte{"child fleet": fleetBody, "in-process fleet": body} {
		if !bytes.Equal(b, localBody) {
			res.Failed += jobs
			res.notef("%s body differs from the local body", name)
		}
	}
	res.notef("records_sha256=%s", sha256Hex(localBody))
	return nil
}
