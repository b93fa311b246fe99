package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// testServer returns a server over a tiny workload scale and its
// httptest frontend.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Scale == 0 {
		opts.Scale = 0.01
	}
	if opts.Store == nil {
		store, err := NewStore(0, "")
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = store
	}
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

const smallGrid = "/v1/grid?apps=ep&backends=tmk,pvm&scenarios=base&nprocs=2"

// TestServeColdThenWarm is the warm-path proof: the same grid request
// served twice returns byte-identical record bodies, and the second
// reply comes entirely from the store — the computed counter (actual
// backend runs) stands still while hits advance.
func TestServeColdThenWarm(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 2})

	status, cold := get(t, ts.URL+smallGrid)
	if status != http.StatusOK {
		t.Fatalf("cold request: status %d, body %s", status, cold)
	}
	var recs []harness.Record
	if err := json.Unmarshal(cold, &recs); err != nil {
		t.Fatalf("cold body does not decode: %v", err)
	}
	if len(recs) != 2 { // ep x {tmk,pvm} x base@2
		t.Fatalf("cold request returned %d records, want 2", len(recs))
	}
	st := srv.Stats()
	if st.Computed != 2 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cold stats: computed=%d misses=%d hits=%d, want 2/2/0", st.Computed, st.Misses, st.Hits)
	}

	status, warm := get(t, ts.URL+smallGrid)
	if status != http.StatusOK {
		t.Fatalf("warm request: status %d", status)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm body differs from cold body:\ncold: %s\nwarm: %s", cold, warm)
	}
	st = srv.Stats()
	if st.Computed != 2 {
		t.Fatalf("warm request invoked a backend: computed=%d, want 2", st.Computed)
	}
	if st.Hits != 2 {
		t.Fatalf("warm request hits=%d, want 2", st.Hits)
	}
	if st.RecordsServed != 4 {
		t.Fatalf("records served=%d, want 4", st.RecordsServed)
	}
}

// TestServeConcurrentDuplicatesComputeOnce fires many identical cold
// requests at once: the store partition plus the singleflight layer
// (with its in-flight store re-check) must collapse them to exactly one
// computation per job no matter how the requests interleave.
func TestServeConcurrentDuplicatesComputeOnce(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 4})

	const clients = 6
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + smallGrid)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			bodies[c], _ = io.ReadAll(resp.Body)
		}(c)
	}
	wg.Wait()

	if st := srv.Stats(); st.Computed != 2 {
		t.Fatalf("%d concurrent duplicate requests computed %d jobs, want exactly 2", clients, st.Computed)
	}
	for c := 1; c < clients; c++ {
		if !bytes.Equal(bodies[0], bodies[c]) {
			t.Fatalf("client %d got a different body", c)
		}
	}
}

// TestServeStream checks the cold-sweep streaming surface: JSON lines,
// one per completed job with its enumeration index, closed by a done
// summary, and carrying exactly the records the array response carries.
func TestServeStream(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 2})
	_ = srv

	status, arr := get(t, ts.URL+smallGrid)
	if status != http.StatusOK {
		t.Fatalf("array request: status %d", status)
	}
	var want []harness.Record
	if err := json.Unmarshal(arr, &want); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + smallGrid + "&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	type line struct {
		Index  int             `json:"index"`
		Total  int             `json:"total"`
		Cached bool            `json:"cached"`
		Record *harness.Record `json:"record"`
		Done   bool            `json:"done"`
		Error  string          `json:"error"`
	}
	got := map[int]harness.Record{}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if l.Done {
			sawDone = true
			if l.Error != "" {
				t.Fatalf("stream reported error: %s", l.Error)
			}
			continue
		}
		if l.Record == nil || l.Total != len(want) {
			t.Fatalf("malformed stream line %q", sc.Text())
		}
		if !l.Cached {
			t.Errorf("second serving of job %d not cached", l.Index)
		}
		got[l.Index] = *l.Record
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream did not end with a done line")
	}
	if len(got) != len(want) {
		t.Fatalf("stream carried %d records, want %d", len(got), len(want))
	}
	for i, rec := range want {
		if got[i] != rec {
			t.Fatalf("stream record %d differs from array record:\n  stream %+v\n  array  %+v", i, got[i], rec)
		}
	}
}

// TestServeStreamCounts checks the closing line's tally, which counts
// the records the request got: pvm never reads the page size, so the
// five jobs of pvm × page are one run.  hits + computed + shared is the
// number of records streamed before the closing line, and the record
// count unless the line carries an error.  On a server with one client
// each equals its /v1/stats move, cold (one run, four shared) and warm
// (five hits).  A cold set whose last job panics streams the four
// records of its pvm run, and its tally counts those four of five.  Two
// clients sending one cold selection at once each get a tally that adds
// up, while /v1/stats counts each cold job once (one run, four shared).
func TestServeStreamCounts(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 2})
	const page = "/v1/grid?apps=ep&backends=pvm&scenarios=page&stream=1&nprocs="
	// stream sends q and returns the closing line and the number of
	// record lines before it.
	stream := func(q string) (streamDone, int, error) {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			return streamDone{}, 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return streamDone{}, 0, fmt.Errorf("status %d (%v): %s", resp.StatusCode, err, body)
		}
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		var done streamDone
		if err := json.Unmarshal(lines[len(lines)-1], &done); err != nil || !done.Done {
			return done, 0, fmt.Errorf("closing line %s (%v)", lines[len(lines)-1], err)
		}
		return done, len(lines) - 1, nil
	}
	check := func(q string, want streamDone) {
		t.Helper()
		done, records, err := stream(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := done.Hits + done.Computed + done.Shared; got != records {
			t.Errorf("%s: closing line %+v counts %d records, %d were streamed", q, done, got, records)
		}
		if wantErr := want.Error; wantErr != "" {
			if !strings.Contains(done.Error, wantErr) {
				t.Errorf("%s: error %q, want it to mention %q", q, done.Error, wantErr)
			}
			done.Error = wantErr
		}
		if done != want {
			t.Errorf("%s: closing line %+v, want %+v", q, done, want)
		}
	}
	moved := func(before, after Stats) streamDone {
		return streamDone{Done: true, Records: 5, Hits: int(after.Hits - before.Hits),
			Computed: int(after.Computed + after.Dispatched - before.Computed - before.Dispatched),
			Shared:   int(after.Shared - before.Shared)}
	}

	for _, want := range []streamDone{
		{Done: true, Records: 5, Computed: 1, Shared: 4},
		{Done: true, Records: 5, Hits: 5},
	} {
		before := srv.Stats()
		check(page+"2", want)
		if got := moved(before, srv.Stats()); got != want {
			t.Errorf("closing line %+v, /v1/stats moved %+v", want, got)
		}
	}

	// The panicking job is planted in the selection's cached plan.
	req := gridRequest{Selection: harness.Selection{Apps: []string{"ep"}, Backends: []string{"pvm"}, Scenarios: []string{"page"}, NProcs: []int{4}}}
	p, err := srv.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	jobs := slices.Clone(p.jobs)
	jobs[len(jobs)-1].Backend = panicBackend{}
	srv.plans.put(planKey(req, srv.opts.Scale), &plan{jobs: jobs, hashes: harness.SpecHashes(jobs)})
	check(page+"4", streamDone{Done: true, Records: 5, Computed: 1, Shared: 3, Error: "job panicked: model bug"})

	before := srv.Stats()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done, records, err := stream(page + "8")
			if err != nil {
				t.Error(err)
				return
			}
			if got := done.Hits + done.Computed + done.Shared; got != records || records != done.Records || done.Error != "" {
				t.Errorf("two clients: closing line %+v counts %d records, %d of %d were streamed", done, got, records, done.Records)
			}
		}()
	}
	wg.Wait()
	if got := moved(before, srv.Stats()); got.Computed != 1 || got.Shared != 4 {
		t.Errorf("two clients: /v1/stats moved %+v, want one run and four shared", got)
	}
}

// TestServeBadRequests pins the structured 400 surface: malformed
// selections name the offending field and the valid choices, reusing
// the harness resolution errors the CLI prints.
func TestServeBadRequests(t *testing.T) {
	_, ts := testServer(t, Options{})

	cases := []struct {
		name, url  string
		wantField  string
		wantInBody []string
	}{
		{"unknown app", "/v1/grid?apps=nonesuch", "apps", []string{"unknown experiment", "EP"}},
		{"unknown backend", "/v1/grid?backends=mpi", "backends", []string{"unknown backend", "tmk", "pvm"}},
		{"unknown scenario set", "/v1/grid?scenarios=nonesuch", "scenarios", []string{"unknown scenario set", "base", "loss"}},
		{"unsupported bigp procs", "/v1/grid?scenarios=bigp&nprocs=8", "scenarios", []string{"does not run at 8", "16 64 256"}},
		{"bad nprocs", "/v1/grid?nprocs=zero", "nprocs", []string{"bad nprocs entry", "2,4,8"}},
		// A huge count would size per-node state (and, cold, simulated
		// processors) inside the server before anything could fail.
		{"nprocs past the bound", "/v1/grid?nprocs=2000000000", "nprocs", []string{"bad processor count 2000000000", "1024"}},
		{"slow set past the bound", "/v1/grid?scenarios=slow&nprocs=2000000000", "nprocs", []string{"bad processor count", "1024"}},
		{"bad scale", "/v1/grid?scale=-1", "scale", []string{"bad scale"}},
		// Past paper scale the problem sizes grow without bound, and NaN
		// and Inf would silently resolve to the smallest sizes.
		{"scale NaN", "/v1/grid?scale=NaN", "scale", []string{"bad scale NaN", "(0, 1]"}},
		{"scale Inf", "/v1/grid?scale=Inf", "scale", []string{"bad scale +Inf"}},
		{"scale past paper scale", "/v1/grid?scale=2", "scale", []string{"bad scale 2", "(0, 1]"}},
		{"scale 1e300", "/v1/spec?scale=1e300", "scale", []string{"bad scale 1e+300"}},
		{"unparsable scale", "/v1/grid?scale=big", "scale", []string{"bad scale \"big\""}},
		{"spec endpoint validates too", "/v1/spec?apps=nonesuch", "apps", []string{"unknown experiment"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := get(t, ts.URL+tc.url)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", status, body)
			}
			var ae struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			if err := json.Unmarshal(body, &ae); err != nil {
				t.Fatalf("400 body is not structured JSON: %s", body)
			}
			if ae.Field != tc.wantField {
				t.Errorf("field %q, want %q (error: %s)", ae.Field, tc.wantField, ae.Error)
			}
			for _, want := range tc.wantInBody {
				if !strings.Contains(ae.Error, want) {
					t.Errorf("error %q does not mention %q", ae.Error, want)
				}
			}
		})
	}

	// Unknown JSON body fields are rejected, not silently ignored — a
	// typo like "nproc" must not run the full default grid.  A body's
	// scale is held to the same range as a query's.
	for _, tc := range []struct{ body, wantField string }{
		{`{"apps":["ep"],"nproc":[2]}`, "body"},
		{`{"apps":["ep"],"scale":2}`, "scale"},
		{`{"apps":["ep"],"scale":1e300}`, "scale"},
		{`{"apps":["ep"],"scale":-0.5}`, "scale"},
	} {
		resp, err := http.Post(ts.URL+"/v1/grid", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var ae struct {
			Field string `json:"field"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || ae.Field != tc.wantField {
			t.Errorf("POST %s: status %d, field %q (%v), want 400 naming %q", tc.body, resp.StatusCode, ae.Field, err, tc.wantField)
		}
	}
}

// TestServeSpecEndpoint checks /v1/spec enumerates without computing,
// reports stable hashes, and — the request-canonicalization half of the
// cache-key story — answers JSON bodies with permuted key order and the
// equivalent GET query identically.
func TestServeSpecEndpoint(t *testing.T) {
	srv, ts := testServer(t, Options{})

	status, viaGet := get(t, ts.URL+"/v1/spec?apps=ep&backends=tmk,pvm&scenarios=base&nprocs=2")
	if status != http.StatusOK {
		t.Fatalf("spec GET: status %d, body %s", status, viaGet)
	}
	bodies := []string{
		`{"apps":["ep"],"backends":["tmk","pvm"],"scenarios":["base"],"nprocs":[2]}`,
		`{"nprocs":[2],"scenarios":["base"],"backends":["tmk","pvm"],"apps":["ep"]}`,
	}
	for i, b := range bodies {
		resp, err := http.Post(ts.URL+"/v1/spec", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		viaPost, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spec POST %d: status %d", i, resp.StatusCode)
		}
		if !bytes.Equal(viaGet, viaPost) {
			t.Fatalf("permuted body %d resolved differently:\nGET:  %s\nPOST: %s", i, viaGet, viaPost)
		}
	}

	var spec struct {
		Engine string `json:"engine"`
		Jobs   []struct {
			Index int    `json:"index"`
			App   string `json:"app"`
			Hash  string `json:"hash"`
			Procs int    `json:"procs"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(viaGet, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Engine != harness.EngineVersion {
		t.Fatalf("spec engine %q, want %q", spec.Engine, harness.EngineVersion)
	}
	if len(spec.Jobs) != 2 {
		t.Fatalf("spec enumerated %d jobs, want 2", len(spec.Jobs))
	}
	for i, j := range spec.Jobs {
		if j.Index != i || len(j.Hash) != 64 || j.Procs != 2 {
			t.Fatalf("malformed spec job %+v", j)
		}
	}
	if spec.Jobs[0].Hash == spec.Jobs[1].Hash {
		t.Fatal("distinct jobs share a hash")
	}
	if st := srv.Stats(); st.Computed != 0 {
		t.Fatalf("/v1/spec computed %d jobs; it must never run the engine", st.Computed)
	}
}

// TestServeStatsAndHealth covers the operational endpoints.
func TestServeStatsAndHealth(t *testing.T) {
	_, ts := testServer(t, Options{})

	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", status, body)
	}

	if _, err := http.Get(ts.URL + smallGrid); err != nil {
		t.Fatal(err)
	}
	status, body = get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body does not decode: %v\n%s", err, body)
	}
	if st.Engine != harness.EngineVersion || st.Computed != 2 || st.Entries != 2 || st.Requests < 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestServeScaleOverride checks a request-level scale resolves its own
// registry (distinct problem sizes => distinct cache keys => fresh
// computation), while equal-scale requests share entries.
func TestServeScaleOverride(t *testing.T) {
	srv, ts := testServer(t, Options{})

	if _, err := http.Get(ts.URL + smallGrid); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Computed; got != 2 {
		t.Fatalf("computed=%d, want 2", got)
	}
	// Same selection at another scale is a different workload: new keys.
	if _, err := http.Get(ts.URL + smallGrid + "&scale=0.02"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Computed; got != 4 {
		t.Fatalf("after scale override computed=%d, want 4", got)
	}
	// Explicitly repeating the server's default scale hits the cache.
	if _, err := http.Get(ts.URL + smallGrid + "&scale=0.01"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Computed; got != 4 {
		t.Fatalf("explicit default scale recomputed: computed=%d, want 4", got)
	}
}

// TestFlightGroupSharesInFlightResult drives the singleflight layer
// directly: a caller that joins while a computation is in flight blocks
// and shares the result instead of recomputing.
func TestFlightGroupSharesInFlightResult(t *testing.T) {
	var g flightGroup
	inFlight := make(chan struct{})
	release := make(chan struct{})
	done := make(chan harness.Record, 1)

	go func() {
		rec, _, _ := g.do("k", func() (harness.Record, error) {
			close(inFlight)
			<-release
			return harness.Record{App: "a", TimeNS: 42}, nil
		})
		done <- rec
	}()
	<-inFlight

	const joiners = 4
	results := make(chan harness.Record, joiners)
	shared := make(chan bool, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			rec, err, sh := g.do("k", func() (harness.Record, error) {
				// Every joiner provably overlaps the flight (see the
				// waiter barrier below), so this must never execute.
				return harness.Record{}, fmt.Errorf("duplicate computation")
			})
			if err != nil {
				t.Errorf("joiner got error: %v", err)
			}
			results <- rec
			shared <- sh
		}()
	}
	// Release the flight only once every joiner is registered against
	// it — the waiter count makes the overlap deterministic, not timed.
	for {
		g.mu.Lock()
		c := g.m["k"]
		g.mu.Unlock()
		if c != nil && c.waiters.Load() == joiners {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	first := <-done
	if first.TimeNS != 42 {
		t.Fatalf("flight returned %+v", first)
	}
	for i := 0; i < joiners; i++ {
		if rec := <-results; rec != first {
			t.Fatalf("joiner %d got %+v, want the flight's result", i, rec)
		}
		if !<-shared {
			t.Fatalf("joiner %d did not share the in-flight result", i)
		}
	}
}

// TestRunColdCanceledContext pins satellite request-cancellation
// behavior: a cold sweep whose request context is already canceled (a
// disconnected client) computes nothing and surfaces the cancellation
// instead of burning CPU for a reply nobody reads.
func TestRunColdCanceledContext(t *testing.T) {
	srv, _ := testServer(t, Options{Workers: 2})
	req := gridRequest{Selection: harness.Selection{Apps: []string{"ep"}, Backends: []string{"tmk", "pvm"}, Scenarios: []string{"base"}, NProcs: []int{2}}}
	p, err := srv.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]int, len(p.jobs))
	for i := range cold {
		cold[i] = i
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := srv.runCold(ctx, p, cold, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("runCold with canceled ctx: %v, want context.Canceled", err)
	}
	if got := srv.Stats().Computed; got != 0 {
		t.Fatalf("canceled sweep computed %d jobs, want 0", got)
	}
}
