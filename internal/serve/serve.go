// Package serve is the experiment service: an HTTP/JSON API over the
// harness Grid/Record machinery with a content-addressed result cache.
//
// Every run in this reproduction is deterministic (the pinned goldens
// prove bit-identical modeled metrics however jobs are scheduled), so
// a Record is a pure function of (app, backend, scenario, nprocs,
// engine version) and therefore perfectly cacheable.  The server
// exploits that: each enumerated grid job is named by the canonical
// content hash of its full spec (harness.SpecHash — app name + problem
// size, backend name, the whole scenario config including fault and
// cost-model overrides, processor count, and harness.EngineVersion),
// warm requests answer straight from a memoizing store, a singleflight
// layer collapses concurrent requests for one run into one computation,
// and cold sweeps can stream per-record progress so large grids render
// incrementally.  Heavy read traffic is served from the
// cache; only genuinely novel scenarios burn CPU.
//
// # Routes
//
//	GET  /healthz    liveness probe; "ok"
//	GET  /v1/grid    run (or recall) a grid, reply with the JSON record
//	                 array — byte-identical whether served cold or warm
//	POST /v1/grid    same, selection in a JSON body
//	GET  /v1/spec    enumerate a grid without running it: per-job
//	                 canonical spec hashes plus the engine version
//	POST /v1/spec    same, selection in a JSON body
//	GET  /v1/stats   service and cache counters (hits, misses, disk
//	                 hits, evictions, inflight, computed, shared,
//	                 records served, requests, job panics, plan hits,
//	                 plan misses, plan entries)
//
// /v1/grid and /v1/spec take the msvdsm grid selection vocabulary —
// query parameters apps, backends, scenarios (scenario-set names),
// nprocs (comma-separated lists) and scale, or the same fields as a
// JSON object — and validate it with the same errors the CLI prints:
// a malformed selection is a structured 400 naming the offending field
// and the valid choices.  `stream=1` on /v1/grid switches the response
// to JSON lines: one {index, total, cached, record} object per
// completed job in completion order, then a {done, records, hits,
// computed, shared} summary line that counts the records the request
// got: hits answered from the store, computed the runs that answered
// its cold jobs (see Cold path) and shared the cold jobs those runs
// answered besides their own.  hits + computed + shared = records; when
// a sweep fails the line also carries an error, and the sum counts only
// the records streamed before it.  On a server with one client the
// three are the request's moves of /v1/stats hits, computed +
// dispatched and shared; a run that concurrent requests share counts in
// each of their tallies and once in /v1/stats.
//
// # Cache key and engine version
//
// The cache key is harness.SpecHash: the hex SHA-256 of the job's
// canonical spec rendering.  The key deliberately
// excludes the worker pool width, whose outputs are byte-identical by
// contract, and includes
// harness.EngineVersion, which must be bumped in lockstep with golden
// regeneration — any model-change PR invalidates every cached record
// simply by moving the hashes.  See internal/harness/spec.go.
//
// # Warm path
//
// A warm request does work in proportion to the bytes it sends.  Two
// things are kept besides the records themselves:
//
//   - The plan of a selection: its jobs and their spec hashes in
//     enumeration order and its /v1/spec body, keyed by the parsed
//     selection and the effective scale (plan.go).  A selection's plan
//     is a pure function of that key, the app and backend registries
//     and harness.EngineVersion; the registries and the version are
//     constants of the process, so a plan never needs invalidating — a
//     new engine version arrives as a new process.  The cache is bounded
//     by maxPlanHashes (32768) jobs in all; a plan that would overflow
//     it empties the cache first.  A request looks its plan up, then
//     probes the store once per hash; the registry is rebuilt and the
//     selection resolved only on a plan miss.  A cold job runs on a
//     clone of its plan job's app: the clone shares the app's
//     core.Program, which no run writes, and keeps the run's outputs
//     itself, so the plan's jobs never carry run state and serve every
//     request for the selection.
//   - Each cached record's JSON: the store keeps harness.RecordJSON of
//     a record from its first read on (Store.GetJSON), and the array
//     body is harness.JoinRecordJSON over those fragments — warm and
//     freshly computed records alike, the same two functions the CLI's
//     harness.WriteJSON is made of.  A record is immutable under its
//     hash, so the fragment is too.
//
// /v1/stats reports plan_hits, plan_misses and plan_entries beside the
// store counters; hits + misses still moves by one per job per request.
//
// # Cold path
//
// The cold jobs of a request are grouped by run key (harness.RunKeys):
// EngineVersion, the app, the standard adapter that runs the job and
// only the config fields that adapter reads.  Jobs that differ only in
// what their backend never reads — PVM across the page-size and
// handler sweeps, TreadMarks with the PVM master co-located — are one
// simulation, and each group takes one flight keyed by its run key,
// which concurrent requests for that run join.  The group's first job
// is computed (or leased to the fleet); every other job gets a copy of
// its record under its own backend and scenario, stored under its own
// spec hash before the run's own job and counted as shared.  Spec
// hashes, /v1/spec bodies, store keys and reply bytes are those of one
// run per job; only the number of runs drops.  A warm record answers
// only jobs of the same request's cold set that have its run key.
//
// A backend × scenario pair the system refuses to build (tmk-tree or
// tmk-sc-tree under loss, dup, reorder, partition or mgr=spread) is a
// 400 on the backends field at resolve time.  Should a job panic all the
// same, harness.Job.Run turns the panic into that request's 500 and the
// cold path counts it as job_panics; the process keeps serving.
//
// # Quickstart
//
//	msvdsm -scale 0.1 -j 4 serve -addr localhost:8177 -cache-dir /tmp/msvdsm-cache &
//
//	# cold: computes and caches; warm: identical bytes, no compute
//	curl -s 'localhost:8177/v1/grid?apps=sor-nonzero&backends=tmk,pvm&scenarios=base&nprocs=2,4'
//	curl -s 'localhost:8177/v1/grid?apps=sor-nonzero&backends=tmk,pvm&scenarios=base&nprocs=2,4'
//
//	# stream a big sweep as it computes
//	curl -sN 'localhost:8177/v1/grid?scenarios=page,lat&stream=1'
//
//	# what would run, and under which cache keys?
//	curl -s 'localhost:8177/v1/spec?apps=ep&scenarios=loss&nprocs=4'
//
//	curl -s localhost:8177/v1/stats
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dispatch"
	"repro/internal/harness"
)

// Options configures a Server.
type Options struct {
	// Scale is the workload scale factor the app registries resolve at
	// when a request does not carry its own (0 means 1.0, paper scale).
	Scale float64

	// Workers bounds how many cold jobs a request computes locally at
	// once (values below 1 mean 1).
	Workers int

	// Store is the content-addressed record cache; required.
	Store *Store

	// Dispatcher, when non-nil, fronts a worker fleet: cold jobs are
	// leased to registered workers (internal/dispatch) and only fall
	// back to the local pool when no live worker exists, the
	// coordinator is draining, or a job fails its fifth lease.
	// The dispatcher's worker-facing routes mount under /v1/dispatch/.
	Dispatcher *dispatch.Dispatcher
}

// Server answers grid requests from the cache, computing only misses.
type Server struct {
	opts Options

	flights flightGroup
	plans   planCache

	requests      atomic.Int64
	badRequests   atomic.Int64
	recordsServed atomic.Int64
	computed      atomic.Int64
	shared        atomic.Int64
	inflight      atomic.Int64
	dispatched    atomic.Int64
	fallbacks     atomic.Int64
	jobPanics     atomic.Int64
}

// New returns a server over the given options.
func New(opts Options) *Server {
	if opts.Scale == 0 {
		opts.Scale = 1.0
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Store == nil {
		store, err := NewStore(0, "")
		if err != nil {
			panic(err) // unreachable: no dir, no IO
		}
		opts.Store = store
	}
	return &Server{opts: opts}
}

// Handler returns the service's route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/grid", s.handleGrid)
	mux.HandleFunc("/v1/spec", s.handleSpec)
	mux.HandleFunc("/v1/stats", s.handleStats)
	if s.opts.Dispatcher != nil {
		mux.Handle("/v1/dispatch/", s.opts.Dispatcher.Handler())
	}
	return mux
}

// Stats is the /v1/stats document.
type Stats struct {
	Engine        string `json:"engine"`
	Requests      int64  `json:"requests"`
	BadRequests   int64  `json:"bad_requests"`
	RecordsServed int64  `json:"records_served"`
	Computed      int64  `json:"computed"`
	Shared        int64  `json:"shared"`
	Inflight      int64  `json:"inflight"`
	Dispatched    int64  `json:"dispatched"`
	Fallbacks     int64  `json:"fallbacks"`
	JobPanics     int64  `json:"job_panics"`
	StoreStats
	PlanStats
	Dispatch *dispatch.Stats `json:"dispatch,omitempty"`
}

// Stats returns a snapshot of the service counters.  Computed counts
// actual local backend runs (the warm-path proof is this number
// standing still while records keep flowing) and Dispatched the runs
// obtained from the worker fleet, once per cold-path flight that ran;
// Shared counts the store entries a run added for jobs other than its
// own, so each cold job is counted once, as computed, dispatched or
// shared, while the memory tier keeps what a sweep stores.  Inflight is
// the cold-path flights under way, one per run however many requests
// joined it; Fallbacks the
// jobs that came back from the dispatcher unserved and ran locally
// instead; JobPanics the local runs that panicked and became their
// request's 500.
func (s *Server) Stats() Stats {
	st := Stats{
		Engine:        harness.EngineVersion,
		Requests:      s.requests.Load(),
		BadRequests:   s.badRequests.Load(),
		RecordsServed: s.recordsServed.Load(),
		Computed:      s.computed.Load(),
		Shared:        s.shared.Load(),
		Inflight:      s.inflight.Load(),
		Dispatched:    s.dispatched.Load(),
		Fallbacks:     s.fallbacks.Load(),
		JobPanics:     s.jobPanics.Load(),
		StoreStats:    s.opts.Store.Stats(),
		PlanStats:     s.plans.stats(),
	}
	if s.opts.Dispatcher != nil {
		ds := s.opts.Dispatcher.Stats()
		st.Dispatch = &ds
	}
	return st
}

// gridRequest is the request schema shared by /v1/grid and /v1/spec, as
// query parameters or a JSON body: a selection in the msvdsm grid flag
// vocabulary, the workload scale and the stream switch.
type gridRequest struct {
	harness.Selection
	Scale  float64 `json:"scale,omitempty"`
	Stream bool    `json:"stream,omitempty"`
}

// apiError is the structured 400/500 body.
type apiError struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// parseRequest decodes the selection from the query string (GET) or a
// JSON body (POST).  Errors are *harness.FieldError so the reply can
// name the offending field; the ranges of processor counts and of the
// scale are Resolve's to check, for both.  A scale of 0, or none, means
// the server default.
func parseRequest(r *http.Request) (gridRequest, error) {
	var req gridRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		var err error
		if req.Selection, err = harness.ParseSelection(q.Get("apps"), q.Get("backends"), q.Get("scenarios"), q.Get("nprocs")); err != nil {
			return req, err
		}
		if v := q.Get("scale"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, &harness.FieldError{Field: "scale",
					Err: fmt.Errorf("bad scale %q (want a workload scale factor in (0, 1], e.g. 0.1)", v)}
			}
			req.Scale = f
		}
		req.Stream = q.Get("stream") == "1" || strings.EqualFold(q.Get("stream"), "true")
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, &harness.FieldError{Field: "body", Err: fmt.Errorf("bad request body: %w", err)}
		}
	default:
		return req, &harness.FieldError{Field: "method",
			Err: fmt.Errorf("method %s not allowed (use GET or POST)", r.Method)}
	}
	return req, nil
}

// plan returns the selection's plan at the request's workload scale
// (or the server default).  A cached plan costs one map lookup; a miss
// resolves, enumerates and hashes the selection against fresh
// registries.
func (s *Server) plan(req gridRequest) (*plan, error) {
	scale := req.Scale
	if scale == 0 {
		scale = s.opts.Scale
	}
	key := planKey(req, scale)
	if p := s.plans.get(key); p != nil {
		return p, nil
	}
	jobs, err := req.Selection.Jobs(scale)
	if err != nil {
		return nil, err
	}
	p := &plan{jobs: jobs, hashes: harness.SpecHashes(jobs), ref: dispatch.JobRef{
		Apps: req.Apps, Backends: req.Backends, Scenarios: req.Scenarios, NProcs: req.NProcs, Scale: scale}}
	if p.spec, err = specBody(jobs, p.hashes); err != nil {
		return nil, err
	}
	s.plans.put(key, p)
	return p, nil
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusBadRequest {
		s.badRequests.Add(1)
	}
	body := apiError{Error: err.Error()}
	var fe *harness.FieldError
	if errors.As(err, &fe) {
		body.Field = fe.Field
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// specJob is one /v1/spec entry.
type specJob struct {
	Index    int    `json:"index"`
	App      string `json:"app"`
	Problem  string `json:"problem,omitempty"`
	Backend  string `json:"backend"`
	Scenario string `json:"scenario"`
	Procs    int    `json:"procs"`
	Hash     string `json:"hash"`
}

// specBody renders the /v1/spec document of an enumerated grid.
func specBody(jobs []harness.Job, hashes []string) ([]byte, error) {
	out := struct {
		Engine string    `json:"engine"`
		Jobs   []specJob `json:"jobs"`
	}{Engine: harness.EngineVersion, Jobs: make([]specJob, len(jobs))}
	for i, j := range jobs {
		out.Jobs[i] = specJob{
			Index:    i,
			App:      j.App.Name(),
			Problem:  j.App.Problem(),
			Backend:  j.Backend.Name(),
			Scenario: j.Scenario.Name,
			Procs:    j.Scenario.Procs,
			Hash:     hashes[i],
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(out)
	return buf.Bytes(), err
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) // a failed write is a client that hung up; nothing to salvage
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, err := parseRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	p, err := s.plan(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	writeBody(w, p.spec)
}

// streamLine is one JSON line of a streaming grid response.
type streamLine struct {
	Index  int             `json:"index"`
	Total  int             `json:"total"`
	Cached bool            `json:"cached"`
	Record *harness.Record `json:"record"`
}

// streamDone is the closing summary line.  It counts the records the
// request got: Hits from the store, Computed the runs that answered its
// cold jobs and Shared the cold jobs those runs answered besides their
// own (tally).  They add up to Records, or, when Error says why the
// sweep stopped, to the records streamed before it.
type streamDone struct {
	Done     bool   `json:"done"`
	Records  int    `json:"records"`
	Hits     int    `json:"hits"`
	Computed int    `json:"computed"`
	Shared   int    `json:"shared"`
	Error    string `json:"error,omitempty"`
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, err := parseRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	p, err := s.plan(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	total := len(p.hashes)

	// An array reply is assembled from one JSON fragment per record, a
	// streamed one is written line by line as records become known.
	var frags [][]byte
	var emit func(line any) error
	if req.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Accel-Buffering", "no")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		var mu sync.Mutex
		emit = func(line any) error {
			mu.Lock()
			defer mu.Unlock()
			if err := enc.Encode(line); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		}
	} else {
		frags = make([][]byte, total)
	}

	// Partition warm and cold with one counted probe per hash: warm jobs
	// answer from the store without touching any backend, cold indices
	// go to the worker pool below.
	var cold []int
	for i, h := range p.hashes {
		if req.Stream {
			if rec, _, ok := s.opts.Store.lookup(h, true, &p.jobs[i]); ok {
				emit(streamLine{Index: i, Total: total, Cached: true, Record: &rec})
				continue
			}
		} else {
			frag, ok, err := s.opts.Store.GetJSON(h, &p.jobs[i])
			if err != nil {
				s.writeError(w, http.StatusInternalServerError, err)
				return
			}
			if ok {
				frags[i] = frag
				continue
			}
		}
		cold = append(cold, i)
	}

	var got tally
	if len(cold) > 0 {
		var recs []harness.Record // recs[k] is job cold[k]'s
		recs, got, err = s.runCold(r.Context(), p, cold, emit)
		if err == nil && !req.Stream {
			for k, i := range cold {
				if frags[i], err = harness.RecordJSON(recs[k]); err != nil {
					break
				}
			}
		}
	}
	if req.Stream {
		// Headers are long gone; a failure is reported in-band.
		done := streamDone{Done: true, Records: total, Hits: total - len(cold), Computed: got.computed, Shared: got.shared}
		if err != nil {
			done.Error = err.Error()
		} else {
			s.recordsServed.Add(int64(total))
		}
		emit(done)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.recordsServed.Add(int64(total))
	// One JSON array in enumeration order, joined by the one function the
	// CLI's WriteJSON joins with: byte-identical whether a record came
	// from the store or from a fresh computation.
	bp := bodyPool.Get().(*[]byte)
	*bp = harness.JoinRecordJSON((*bp)[:0], frags)
	writeBody(w, *bp)
	bodyPool.Put(bp)
}

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// tally counts the records a cold sweep handed its request: computed
// runs, and shared jobs those runs answered besides their own.
type tally struct{ computed, shared int }

// runCold answers the cold jobs of plan p (cold holds their indices in
// p.jobs; see Cold path in the package doc) and returns their records,
// recs[k] being job cold[k]'s, and their tally.  A flight first probes
// its group's jobs quietly (the request counted its misses) and shares
// a warm one's record.  A request that joined another's flight stores
// those of its jobs that flight did not.  The first failure, by group,
// stops the sweep (harness.ForEach) and is returned beside the records
// of the groups that completed, which are all the tally counts.  Runs
// not yet started when the client disconnects (ctx) are abandoned; a
// run already going completes and still lands in the store.
//
// With workers registered on the dispatcher, the pool is as wide as the
// sweep has runs and each run's first job is leased to the fleet; it
// runs locally, at most Workers at a time, only when the dispatcher
// cannot serve it.  A local run is on a clone of its app, so p is never
// written.
func (s *Server) runCold(ctx context.Context, p *plan, cold []int, emit func(any) error) ([]harness.Record, tally, error) {
	jobs := make([]harness.Job, len(cold))
	hashes := make([]string, len(cold))
	for k, i := range cold {
		jobs[k], hashes[k] = p.jobs[i], p.hashes[i]
	}
	keys := harness.RunKeys(jobs)
	runs := harness.Runs(keys)
	fleet := s.opts.Dispatcher != nil && s.opts.Dispatcher.HasWorkers()
	width := s.opts.Workers
	if fleet {
		width = len(runs)
	}
	// localSlots bounds actual local computation to the configured pool
	// width even when the pool was widened for dispatch fan-out and jobs
	// fall back local.
	localSlots := make(chan struct{}, s.opts.Workers)
	compute := func(k int) (harness.Record, error) {
		if fleet {
			ref := p.ref
			ref.Index = cold[k]
			rec, err := s.opts.Dispatcher.Do(ctx, ref, hashes[k])
			if err == nil {
				s.dispatched.Add(1)
				return rec, nil
			}
			if ctx.Err() != nil {
				return rec, ctx.Err()
			}
			// Unserved by the fleet — compute locally below.
			s.fallbacks.Add(1)
		}
		localSlots <- struct{}{}
		defer func() { <-localSlots }()
		s.computed.Add(1)
		j := jobs[k]
		j.App = j.App.Clone()
		rec, err := j.Run()
		if errors.Is(err, harness.ErrJobPanicked) {
			s.jobPanics.Add(1)
		}
		return rec, err
	}
	// put stores run's record under each job of group the store lacks,
	// counting each new entry as shared.
	put := func(group []int, run harness.Record) {
		for _, k := range group {
			if _, _, ok := s.opts.Store.lookup(hashes[k], false, &jobs[k]); !ok && s.opts.Store.Put(hashes[k], jobs[k].Share(run)) {
				s.shared.Add(1)
			}
		}
	}
	recs := make([]harness.Record, len(cold))
	var got tally
	var mu sync.Mutex
	err := harness.ForEach(ctx, len(runs), width, func(r int) error {
		group := runs[r]
		fly := func() (harness.Record, error) {
			s.inflight.Add(1)
			defer s.inflight.Add(-1)
			for _, k := range group {
				if rec, _, ok := s.opts.Store.lookup(hashes[k], false, &jobs[k]); ok {
					put(group, rec)
					return rec, nil
				}
			}
			rec, err := compute(group[0])
			if err == nil {
				put(group[1:], rec)
				s.opts.Store.Put(hashes[group[0]], rec)
			}
			return rec, err
		}
		run, err, joined := s.flights.do(keys[group[0]], fly)
		// A joined flight that stopped because its leader's client left
		// flies again for this request's client, which has not.
		for joined && ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			run, err, joined = s.flights.do(keys[group[0]], fly)
		}
		if err != nil {
			return err
		}
		if joined {
			put(group, run)
		}
		for _, k := range group {
			recs[k] = jobs[k].Share(run)
			if emit != nil {
				emit(streamLine{Index: cold[k], Total: len(p.jobs), Cached: false, Record: &recs[k]})
			}
		}
		mu.Lock()
		got.computed, got.shared = got.computed+1, got.shared+len(group)-1
		mu.Unlock()
		return nil
	})
	return recs, got, err
}
