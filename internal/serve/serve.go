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
// layer collapses concurrent identical cold requests into one
// computation, and cold sweeps can stream per-record progress so large
// grids render incrementally.  Heavy read traffic is served from the
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
// computed} summary line.
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
//     clone of its plan job's app, so the plan's jobs never carry run
//     state and serve every request for the selection.
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
// simulation: the group's first job is computed (or leased to the
// fleet), and every other job gets a copy of its record under its own
// backend and scenario, stored under its own spec hash and counted as
// shared.  Spec hashes, /v1/spec bodies, store keys and reply bytes are
// those of one run per job; only the number of runs drops.  Sharing is
// within one request's cold set: a warm record never answers a cold
// job with another hash.
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
// standing still while records keep flowing), Dispatched the records
// obtained from the worker fleet, Shared the cold jobs answered by
// another job's run in the same sweep (runCold counts each cold job
// once, as computed, dispatched or shared), and Fallbacks the jobs that
// came back from the dispatcher unserved and ran locally instead;
// JobPanics the local runs that panicked and became their request's
// 500.
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

// gridRequest is the selection schema shared by /v1/grid and /v1/spec:
// the msvdsm grid flag vocabulary as query parameters or a JSON body.
type gridRequest struct {
	Apps      []string `json:"apps,omitempty"`
	Backends  []string `json:"backends,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`
	NProcs    []int    `json:"nprocs,omitempty"`
	Scale     float64  `json:"scale,omitempty"`
	Stream    bool     `json:"stream,omitempty"`
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
		sel, err := harness.ParseSelection(q.Get("apps"), q.Get("backends"), q.Get("scenarios"), q.Get("nprocs"))
		if err != nil {
			return req, err
		}
		req.Apps, req.Backends, req.Scenarios, req.NProcs = sel.Apps, sel.Backends, sel.Scenarios, sel.NProcs
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

// plan returns the selection's plan and the effective workload scale
// (the request's, or the server default).  A cached plan costs one map
// lookup; a miss resolves, enumerates and hashes the selection.
func (s *Server) plan(req gridRequest) (*plan, float64, error) {
	scale := req.Scale
	if scale == 0 {
		scale = s.opts.Scale
	}
	key := planKey(req, scale)
	if p := s.plans.get(key); p != nil {
		return p, scale, nil
	}
	jobs, err := s.jobs(req, scale)
	if err != nil {
		return nil, scale, err
	}
	p := &plan{jobs: jobs, hashes: harness.SpecHashes(jobs)}
	if p.spec, err = specBody(jobs, p.hashes); err != nil {
		return nil, scale, err
	}
	s.plans.put(key, p)
	return p, scale, nil
}

// jobs resolves a request against fresh registries and enumerates its
// grid.
func (s *Server) jobs(req gridRequest, scale float64) ([]harness.Job, error) {
	sel := harness.Selection{
		Apps:      req.Apps,
		Backends:  req.Backends,
		Scenarios: req.Scenarios,
		NProcs:    req.NProcs,
	}
	grid, err := sel.Resolve(scale)
	if err != nil {
		return nil, err
	}
	jobs, err := grid.Jobs()
	if err != nil {
		return nil, &harness.FieldError{Field: "scenarios", Err: err}
	}
	return jobs, nil
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
	p, _, err := s.plan(req)
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

// streamDone is the closing summary line.
type streamDone struct {
	Done     bool   `json:"done"`
	Records  int    `json:"records"`
	Hits     int    `json:"hits"`
	Computed int    `json:"computed"`
	Error    string `json:"error,omitempty"`
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, err := parseRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	p, scale, err := s.plan(req)
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
			if rec, ok := s.opts.Store.Get(h); ok {
				emit(streamLine{Index: i, Total: total, Cached: true, Record: &rec})
				continue
			}
		} else {
			frag, ok, err := s.opts.Store.GetJSON(h)
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

	if len(cold) > 0 {
		recs := make([]harness.Record, len(cold)) // recs[k] is job cold[k]'s
		err = s.runCold(r.Context(), req, scale, p.jobs, p.hashes, cold, recs, emit)
		if err == nil && !req.Stream {
			for k, i := range cold {
				if frags[i], err = harness.RecordJSON(recs[k]); err != nil {
					break
				}
			}
		}
		if err != nil {
			if req.Stream {
				// Headers are long gone; report the failure in-band.
				emit(streamDone{Done: true, Records: total, Hits: total - len(cold),
					Computed: len(cold), Error: err.Error()})
				return
			}
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
	}

	s.recordsServed.Add(int64(total))
	if req.Stream {
		emit(streamDone{Done: true, Records: total, Hits: total - len(cold), Computed: len(cold)})
		return
	}
	// One JSON array in enumeration order, joined by the one function the
	// CLI's WriteJSON joins with: byte-identical whether a record came
	// from the store or from a fresh computation.
	bp := bodyPool.Get().(*[]byte)
	*bp = harness.JoinRecordJSON((*bp)[:0], frags)
	writeBody(w, *bp)
	bodyPool.Put(bp)
}

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// runCold executes the cold job indices on the harness pool
// (harness.ForEach), filling recs (recs[k] is job cold[k]'s record).
// The cold jobs are grouped by run key (harness.Runs), and only each
// group's first job runs; every other job of the group is answered from
// its record (harness.Job.Share) and counted as shared.  The first
// failure, by group, stops the sweep and is returned.  Each job —
// run or shared — goes through the singleflight group keyed by its spec
// hash, and re-checks the store inside the flight, so an identical job
// — in this request or a concurrent one — is computed, dispatched or
// shared exactly once no matter how the flights interleave with
// completions.  A local computation runs on a clone of the job's app,
// so jobs is never written.
//
// With a dispatcher attached and workers registered, the pool is as
// wide as the sweep has runs and each run's first job is leased to the
// fleet (all of them concurrently — the goroutines just wait on
// completions); they only fall back to local compute, bounded to
// Workers at a time, when the dispatcher cannot serve them (no workers
// left, coordinator draining, or a job that failed its fifth lease):
// local compute is always correct, just not scaled out.
//
// ctx is the request context: when the client disconnects mid-sweep,
// jobs not yet started are abandoned instead of burning CPU for a
// reply nobody reads.  A job already running completes (a simulation
// is not interruptible) and still lands in the store.
func (s *Server) runCold(ctx context.Context, req gridRequest, scale float64, jobs []harness.Job, hashes []string, cold []int, recs []harness.Record, emit func(any) error) error {
	coldJobs := make([]harness.Job, len(cold))
	for k, i := range cold {
		coldJobs[k] = jobs[i]
	}
	runs := harness.Runs(coldJobs)
	fleet := s.opts.Dispatcher != nil && s.opts.Dispatcher.HasWorkers()
	width := s.opts.Workers
	if fleet {
		width = len(runs)
	}
	// localSlots bounds actual local computation to the configured pool
	// width even when the pool was widened for dispatch fan-out and jobs
	// fall back local.
	localSlots := make(chan struct{}, s.opts.Workers)
	return harness.ForEach(ctx, len(runs), width, func(r int) error {
		var run harness.Record // the record of the group's first job
		for n, k := range runs[r] {
			i := cold[k]
			s.inflight.Add(1)
			rec, err, _ := s.flights.do(hashes[i], func() (harness.Record, error) {
				// Double-check the store: a flight for this hash may have
				// completed between our miss and now.  Quiet lookup — this
				// request already counted its miss.
				if rec, _, ok := s.opts.Store.lookup(hashes[i], false); ok {
					return rec, nil
				}
				if n > 0 {
					s.shared.Add(1)
					rec := jobs[i].Share(run)
					s.opts.Store.Put(hashes[i], rec)
					return rec, nil
				}
				if fleet {
					ref := dispatch.JobRef{
						Apps:      req.Apps,
						Backends:  req.Backends,
						Scenarios: req.Scenarios,
						NProcs:    req.NProcs,
						Scale:     scale,
						Index:     i,
					}
					rec, err := s.opts.Dispatcher.Do(ctx, ref, hashes[i])
					if err == nil {
						s.dispatched.Add(1)
						s.opts.Store.Put(hashes[i], rec)
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
				j := jobs[i]
				j.App = j.App.Clone()
				rec, err := j.Run()
				if errors.Is(err, harness.ErrJobPanicked) {
					s.jobPanics.Add(1)
				} else if err == nil {
					s.opts.Store.Put(hashes[i], rec)
				}
				return rec, err
			})
			s.inflight.Add(-1)
			if err != nil {
				return err
			}
			if n == 0 {
				run = rec
			}
			recs[k] = rec
			if emit != nil {
				emit(streamLine{Index: i, Total: len(jobs), Cached: false, Record: &recs[k]})
			}
		}
		return nil
	})
}
