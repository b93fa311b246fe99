package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Serve workloads, end to end: a child `msvdsm serve` driven over
// loopback HTTP by a closed loop of two clients (each caller waits for
// its reply before sending the next request, so a slower server is
// offered less load).  The request streams are the only thing --seed
// drives: the catalog of selections is fixed, the seed orders it.

// serveClients is the closed loop's width: no more load than the host
// has processors (nproc = 2 on the reference host).
const serveClients = 2

// blockRequests is the size of the request block whose median duration
// is wall_s on a serve workload.
const blockRequests = 500

// request is one HTTP GET the load generator sends.  The target is
// rendered once, when the catalog is built: the timed loop shares two
// cores with the server and should not spend them encoding URLs.
type request struct {
	Path   string // /v1/grid or /v1/spec
	Sel    selection
	target string // Path?query
}

func newRequest(path string, sel selection) request {
	return request{path, sel, path + "?" + sel.query()}
}

func (r request) key() string { return r.target }

var (
	allProcs     = []int{1, 2, 3, 4, 5, 6, 7, 8}
	stdBackends  = []string{"seq", "tmk", "pvm"}
	pairBackends = []string{"tmk", "pvm"}
)

func grid(apps, backends, scenarios []string, nprocs []int) request {
	return newRequest("/v1/grid", selection{Apps: apps, Backends: backends, Scenarios: scenarios, NProcs: nprocs})
}

// appGroups cuts the registry into consecutive groups of n names.
func appGroups(n int) [][]string {
	var out [][]string
	for i := 0; i+n <= len(paperApps); i += n {
		out = append(out, paperApps[i:i+n])
	}
	return out
}

// readCatalog is the serve-read request catalog: 37 figure- and
// table-sized selections of 24 to 276 records, all inside a universe of
// 444 distinct jobs (the figure grid plus the page and latency sweeps
// at 8 processors), so the pre-warm is short and every timed request is
// a pure read.
func readCatalog() []request {
	base := []string{"base"}
	var c []request
	c = append(c, grid(nil, stdBackends, base, allProcs))                            // every figure: 204
	c = append(c, grid(nil, stdBackends, []string{"base", "page", "lat"}, []int{8})) // 276
	for _, n := range []int{2, 3, 4, 6} {                                            // 34, 51, 68, 102 records
		for _, g := range appGroups(n) {
			c = append(c, grid(g, stdBackends, base, allProcs))
		}
	}
	c = append(c,
		grid(nil, pairBackends, base, []int{8}),                    // Table 2: 24
		grid(nil, stdBackends, base, []int{8}),                     // Tables 1+2: 36
		grid(nil, []string{"tmk"}, base, allProcs),                 // 96
		grid(nil, []string{"pvm"}, base, allProcs),                 // 96
		grid(nil, stdBackends, base, []int{2, 4, 8}),               // 84
		grid(nil, stdBackends, base, []int{1, 2, 4, 8}),            // 108
		grid(nil, stdBackends, base, []int{4, 8}),                  // 60
		grid(nil, pairBackends, []string{"page"}, []int{8}),        // 120
		grid(nil, pairBackends, []string{"lat"}, []int{8}),         // 120
		grid(nil, pairBackends, []string{"page", "lat"}, []int{8}), // 240
	)
	for _, g := range appGroups(6) {
		c = append(c,
			grid(g, pairBackends, []string{"page"}, []int{8}), // 60
			grid(g, pairBackends, []string{"lat"}, []int{8}),  // 60
		)
	}
	// /v1/spec over some of the same selections: resolve and hash only.
	for _, i := range []int{0, 1, 17, 20, 24, 26} {
		c = append(c, newRequest("/v1/spec", c[i].Sel))
	}
	return c
}

// churnCapacity is the serve-churn server's memory tier, in records:
// larger than the hot set, much smaller than the tail.
const churnCapacity = 512

// churnLag is how many blocks separate a tail selection's first request
// from its revisit.  Each block puts two tail selections (about 9
// records) at the front of the memory tier, which has room for some 300
// tail records beside the hot set, so after 48 blocks the selection has
// been evicted and its revisit is a disk hit and a re-promotion.
const churnLag = 48

// churnHot is the hot set: 204 distinct records, which fit the memory tier.
func churnHot() []request {
	base := []string{"base"}
	procs := []int{2, 4, 8}
	h := []request{
		grid(nil, pairBackends, base, []int{8}),
		grid(nil, stdBackends, base, []int{8}),
		grid(nil, stdBackends, base, procs),
		grid(nil, pairBackends, base, procs),
		grid(nil, pairBackends, []string{"page"}, []int{8}),
	}
	for _, g := range appGroups(4) {
		h = append(h, grid(g, stdBackends, base, procs))
		h = append(h, grid(g, pairBackends, []string{"page"}, []int{8}))
	}
	return h
}

// churnTail is the long tail: one app on one group of backends under one
// other scenario set at one other processor count, 1 to 12 records each,
// 2772 selections and 12180 records in all.  A run uses one new entry
// per block of ten requests, about 440 of them in eleven seconds on the
// reference host, so the server can become five times faster before the
// tail runs out (and then the run fails, see stream.exhausted).  The
// axes are the ones that give distinct jobs: most apps reach their
// smallest problem size near scale 0.01, so a scale axis would send the
// same jobs again.  A third of the entries still carry a per-request
// scale.
func churnTail() []request {
	sets := []string{"lat", "handler", "mtu", "bw", "placement", "dup", "slow", "colocated", "loss", "reorder", "partition"}
	// Every parallel backend but the tree variants, which refuse the
	// lossy sets.
	groups := [][]string{{"tmk", "pvm"}, {"tmk-sc", "pvm-xdr"}, {"tmk-1k"}}
	var t []request
	for _, set := range sets {
		for _, group := range groups {
			for _, n := range []int{2, 3, 4, 5, 6, 7, 8} {
				for i, app := range paperApps {
					sel := selection{Apps: []string{app}, Backends: group, Scenarios: []string{set}, NProcs: []int{n}}
					if (i+n)%3 == 0 {
						sel.Scale = 0.02
					}
					t = append(t, newRequest("/v1/grid", sel))
				}
			}
		}
	}
	return t
}

// stream hands out the seeded request sequence; the clients share it.
type stream struct {
	mu   sync.Mutex
	next func() request
	// exhausted: the churn tail ran out and wrapped, so "new" selections
	// were in fact cached ones and the run's mix is not the workload's.
	exhausted bool
}

func (s *stream) take() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// readStream cycles through the catalog, reshuffled by the seed every
// cycle: every seed sends the same mix, in a different order.
func readStream(seed int64, catalog []request) *stream {
	rng := rand.New(rand.NewSource(seed))
	var perm []int
	pos := 0
	return &stream{next: func() request {
		if pos == len(perm) {
			perm, pos = rng.Perm(len(catalog)), 0
		}
		r := catalog[perm[pos]]
		pos++
		return r
	}}
}

// churnStream sends blocks of ten requests in seeded order: eight from
// the hot set, one new tail selection, and one revisit of the tail
// selection first requested churnLag blocks earlier.  tail must already
// be in its seeded order (see churnTailOrder) and its first churnLag
// entries pre-warmed.
func churnStream(seed int64, hot, tail []request) *stream {
	rng := rand.New(rand.NewSource(seed))
	var hotPerm []int
	hotPos, k := 0, 0
	var block []request
	pos := 0
	s := &stream{}
	s.next = func() request {
		if pos == len(block) {
			if k+churnLag >= len(tail) {
				s.exhausted = true
			}
			block, pos = block[:0], 0
			for i := 0; i < 8; i++ {
				if hotPos == len(hotPerm) {
					hotPerm, hotPos = rng.Perm(len(hot)), 0
				}
				block = append(block, hot[hotPerm[hotPos]])
				hotPos++
			}
			block = append(block, tail[k%len(tail)], tail[(k+churnLag)%len(tail)])
			k++
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		r := block[pos]
		pos++
		return r
	}
	return s
}

// churnTailOrder is the tail in the order the seed visits it.
func churnTailOrder(seed int64) []request {
	tail := churnTail()
	rand.New(rand.NewSource(seed^0x5eed)).Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	return tail
}

// bodies remembers the first body seen per request; every later body of
// the same request must equal it (a warm body must equal the cold one).
type bodies struct {
	mu  sync.Mutex
	ref map[string][]byte
}

// check records or compares; false means the body differs.
func (b *bodies) check(key string, body []byte) bool {
	b.mu.Lock()
	ref, ok := b.ref[key]
	if !ok {
		b.ref[key] = append([]byte(nil), body...)
	}
	b.mu.Unlock()
	return !ok || bytes.Equal(ref, body)
}

// loopResult is one closed-loop block.
type loopResult struct {
	LatMS     []float64 // per request, send to last byte
	DoneS     []float64 // completion times since the loop began, ascending
	Failed    int
	FirstFail string
}

// closedLoop drives the server with serveClients clients until the
// deadline passes, fetching requests from the stream.
func closedLoop(base string, st *stream, ref *bodies, d time.Duration) loopResult {
	var mu sync.Mutex
	var out loopResult
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, done []float64
			failed, firstFail := 0, ""
			for time.Since(start) < d {
				r := st.take()
				t0 := time.Now()
				status, body, err := httpGet(base + r.target)
				t1 := time.Now()
				lat = append(lat, float64(t1.Sub(t0))/1e6)
				done = append(done, t1.Sub(start).Seconds())
				switch {
				case err != nil:
					failed++
					firstFail = fmt.Sprintf("%s: %v", r.key(), err)
				case status != 200:
					failed++
					firstFail = fmt.Sprintf("%s: status %d: %.200s", r.key(), status, body)
				case !ref.check(r.key(), body):
					failed++
					firstFail = fmt.Sprintf("%s: body differs from the first body of this selection", r.key())
				}
			}
			mu.Lock()
			out.LatMS = append(out.LatMS, lat...)
			out.DoneS = append(out.DoneS, done...)
			out.Failed += failed
			if out.FirstFail == "" {
				out.FirstFail = firstFail
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Float64s(out.DoneS)
	return out
}

// blockSeconds cuts ascending completion times into blocks of n
// requests and returns each whole block's duration; with less than one
// block it extrapolates from what completed.
func blockSeconds(done []float64, n int) []float64 {
	var out []float64
	prev := 0.0
	for i := n; i <= len(done); i += n {
		out = append(out, done[i-1]-prev)
		prev = done[i-1]
	}
	if len(out) == 0 && len(done) > 0 {
		out = append(out, done[len(done)-1]*float64(n)/float64(len(done)))
	}
	return out
}

// serveSpec says how one serve workload sets its server up.
type serveSpec struct {
	capacity int // memory tier in records with a disk tier beside it; 0: the default store
	prewarm  []request
	stream   *stream
}

func newServeSpec(w *workload, seed int64) serveSpec {
	if w.Name == "serve-churn" {
		hot, tail := churnHot(), churnTailOrder(seed)
		return serveSpec{
			capacity: churnCapacity,
			prewarm:  append(append([]request{}, hot...), tail[:churnLag]...),
			stream:   churnStream(seed, hot, tail),
		}
	}
	catalog := readCatalog()
	return serveSpec{prewarm: catalog, stream: readStream(seed, catalog)}
}

// startWarmServer is one set-up: build, start the child, send every
// pre-warm request once and keep the cold bodies.
func (e *env) startWarmServer(w *workload, spec serveSpec, ref *bodies, n int) (*daemon, string, error) {
	if _, err := e.build(); err != nil {
		return nil, "", err
	}
	cacheDir := filepath.Join(e.out, fmt.Sprintf("cache-%s-%d", w.Name, n))
	os.RemoveAll(cacheDir)
	var serveArgs []string
	if spec.capacity > 0 {
		serveArgs = []string{"-cache-dir", cacheDir, "-cache-entries", strconv.Itoa(spec.capacity)}
	}
	d, err := e.startServer(fmt.Sprintf("%s-server-%d", w.Name, n), []string{"-scale", w.scaleArg(), "-j", "2"}, serveArgs)
	if err != nil {
		return nil, cacheDir, err
	}
	for _, r := range spec.prewarm {
		status, body, err := httpGet(d.addr + r.target)
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err == nil && !ref.check(r.key(), body) {
			err = fmt.Errorf("cold body differs between set-ups")
		}
		if err != nil {
			d.stop()
			return nil, cacheDir, fmt.Errorf("pre-warm %s: %v", r.key(), err)
		}
	}
	return d, cacheDir, nil
}

// serverStats fetches /v1/stats as a flat name -> number map, so the
// benchmark names no field of the product's stats structs.
func serverStats(base string) map[string]float64 {
	out := map[string]float64{}
	status, body, err := httpGet(base + "/v1/stats")
	if err != nil || status != 200 {
		return out
	}
	flattenNumbers("", body, out)
	return out
}

func flattenNumbers(prefix string, doc []byte, out map[string]float64) {
	var obj map[string]json.RawMessage
	if json.Unmarshal(doc, &obj) != nil {
		return
	}
	for k, v := range obj {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[prefix+k] = f
		} else {
			flattenNumbers(prefix+k+".", v, out)
		}
	}
}

// runServeWorkload is the untraced, end-to-end run of a serve workload.
func (e *env) runServeWorkload(w *workload, seed int64, budget time.Duration) (*result, error) {
	res := &result{Metrics: map[string]float64{}}
	spec := newServeSpec(w, seed)
	ref := &bodies{ref: map[string][]byte{}}

	var srv *daemon
	var cacheDir string
	n := 0
	setup, err := measureSetup(setupBuilds, func() error {
		if srv != nil {
			srv.stop()
			os.RemoveAll(cacheDir)
		}
		n++
		var err error
		srv, cacheDir, err = e.startWarmServer(w, spec, ref, n)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)

	// One warm-up block before timing: connections open, the server's
	// heap at its working size.
	closedLoop(srv.addr, spec.stream, ref, time.Second)
	loop := closedLoop(srv.addr, spec.stream, ref, budget)
	stats := serverStats(srv.addr)
	ru, err := srv.stop()
	if err != nil {
		return nil, err
	}
	if spec.stream.exhausted {
		return nil, fmt.Errorf("%s: the tail of %d selections ran out after %d requests, so cold requests became cached ones; enlarge churnTail", w.Name, len(churnTail()), len(loop.LatMS))
	}

	nreq := len(loop.LatMS)
	if nreq == 0 {
		return nil, fmt.Errorf("%s: no request completed", w.Name)
	}
	res.Attempted, res.Failed = nreq, loop.Failed
	blocks := blockSeconds(loop.DoneS, blockRequests)
	res.Metrics["setup_s"] = setup
	res.Metrics["wall_s"] = median(blocks)
	res.Metrics["req_per_s"] = float64(nreq) / loop.DoneS[nreq-1]
	res.Metrics["req_p50_ms"] = median(loop.LatMS)
	res.Metrics["req_p99_ms"] = percentile(loop.LatMS, 99)
	res.notef("requests=%d clients=%d closed loop, blocks of %d requests=%d (wall_s is the median block)", nreq, serveClients, blockRequests, len(blocks))
	if p, v, ok := topPercentile(loop.LatMS); ok {
		res.notef("highest percentile with 10 samples beyond it: p%g = %.4f ms; max = %.4f ms", p, v, percentile(loop.LatMS, 100))
	}
	if loop.Failed > 0 {
		res.notef("first failure: %s", loop.FirstFail)
	}
	res.notef("server: hits=%.0f disk_hits=%.0f misses=%.0f evictions=%.0f computed=%.0f entries=%.0f",
		stats["hits"], stats["disk_hits"], stats["misses"], stats["evictions"], stats["computed"], stats["entries"])
	res.notef("server child: user=%.2fs sys=%.2fs maxrss=%.0fMB", ru.UserS, ru.SysS, ru.MaxRSSMB)
	return res, nil
}
