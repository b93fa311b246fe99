package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

// TestServeRejectsUnsupportedCombination is the regression for the
// crash the benchmark's tail sizing found: a tree-barrier backend under
// a lossy scenario set used to panic in tmk.NewSystem on a cold-path
// goroutine and end the process.  It is a 400 naming the field now, and
// the server keeps answering.
func TestServeRejectsUnsupportedCombination(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 2})
	for _, q := range []string{
		"/v1/grid?apps=ep&backends=tmk-tree&scenarios=loss&nprocs=4",
		"/v1/grid?apps=ep&backends=pvm,tmk-sc-tree&scenarios=base,partition&nprocs=4",
		"/v1/spec?apps=ep&backends=tmk-tree&scenarios=placement&nprocs=4",
	} {
		status, body := get(t, ts.URL+q)
		var ae apiError
		if err := json.Unmarshal(body, &ae); err != nil || status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", q, status, body)
		}
		if ae.Field != "backends" || !strings.Contains(ae.Error, "TreeBarrier") {
			t.Errorf("%s: field %q, error %q", q, ae.Field, ae.Error)
		}
	}
	if status, _ := get(t, ts.URL+smallGrid); status != http.StatusOK {
		t.Fatalf("server stopped answering after the rejected requests: status %d", status)
	}
	if st := srv.Stats(); st.BadRequests != 3 || st.Computed != 2 || st.JobPanics != 0 {
		t.Fatalf("stats after rejections: %+v", st)
	}
}

type panicBackend struct{}

func (panicBackend) Name() string { return "boom" }
func (panicBackend) Run(core.App, core.Scenario) (core.Result, error) {
	panic("model bug")
}

// TestRunColdRecoversJobPanic: a job that panics on the cold path is
// that request's error and a job_panics count — not a dead process, and
// not a flight left open for the next request of the same hash to hang
// on.
func TestRunColdRecoversJobPanic(t *testing.T) {
	srv, _ := testServer(t, Options{Workers: 2})
	ep := harness.Find(harness.Apps(0.01), "EP")
	jobs := []harness.Job{
		{App: ep, Backend: core.PVM, Scenario: core.Base(2)},
		{App: ep, Backend: panicBackend{}, Scenario: core.Base(2)},
	}
	hashes := harness.SpecHashes(jobs)
	for attempt := 1; attempt <= 2; attempt++ {
		recs, _, err := srv.runCold(context.Background(), &plan{jobs: jobs, hashes: hashes}, []int{0, 1}, nil)
		if err == nil || !strings.Contains(err.Error(), "job panicked: model bug") || !strings.Contains(err.Error(), "EP/boom") {
			t.Fatalf("attempt %d: runCold error %v, want the recovered panic naming the job", attempt, err)
		}
		if recs[0].App != "EP" || recs[0].Backend != "pvm" {
			t.Fatalf("attempt %d: the healthy job beside the panicking one returned %+v", attempt, recs[0])
		}
		if st := srv.Stats(); st.JobPanics != int64(attempt) || st.Inflight != 0 {
			t.Fatalf("attempt %d: stats %+v", attempt, st)
		}
	}
	if _, ok := srv.opts.Store.Get(hashes[1]); ok {
		t.Fatal("a panicked job left a record in the store")
	}
}

// TestServeCounterInvariant: a /v1/grid request of N jobs moves the
// store's hits + misses by exactly N — fully cold, fully warm, partly
// warm, answered from disk by a restarted server, and when the plan is
// cached but the store has evicted its records — with several clients
// sending the same selection at once every time.  The plan cache skips
// the resolve, never the probe; the cold path's in-flight re-check
// stays quiet; and concurrent duplicates still compute once.  Each job
// that was cold when the round began is counted exactly once, as
// computed, dispatched or shared, however many clients missed it.
func TestServeCounterInvariant(t *testing.T) {
	const clients = 4
	const (
		narrow = "/v1/grid?apps=ep,sor-zero&backends=seq,tmk,pvm&scenarios=base&nprocs=2"   // 6 jobs
		wide   = "/v1/grid?apps=ep,sor-zero&backends=seq,tmk,pvm&scenarios=base&nprocs=2,4" // 10 jobs, 6 of them narrow's
		// 24 jobs, 4 of them narrow's; per app the 5 cold tmk jobs are 5
		// runs (page=4096's twin, base, is warm) and the 5 cold pvm jobs 1.
		paged = "/v1/grid?apps=ep,sor-zero&backends=tmk,pvm&scenarios=base,page&nprocs=2"
	)
	dir := t.TempDir()
	newServer := func(capacity int, dir string) (*Server, string) {
		store, err := NewStore(capacity, dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, ts := testServer(t, Options{Workers: 2, Store: store})
		return srv, ts.URL
	}
	// step sends the request from every client at once and checks what
	// the round moved.
	// wantComputed and wantShared of -1 check neither, nor the sum.
	step := func(name string, srv *Server, base, q string, jobs int, wantComputed, wantShared int64, check func(before, after Stats)) {
		t.Helper()
		before := srv.Stats()
		var wg sync.WaitGroup
		bodies := make([][]byte, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(base + q)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d: %s", name, resp.StatusCode, buf.Bytes())
				}
				bodies[c] = buf.Bytes()
			}()
		}
		wg.Wait()
		after := srv.Stats()
		if got := (after.Hits + after.Misses) - (before.Hits + before.Misses); got != int64(clients*jobs) {
			t.Errorf("%s: hits+misses moved by %d, want %d clients x %d jobs", name, got, clients, jobs)
		}
		if got := after.Computed - before.Computed; wantComputed >= 0 && got != wantComputed {
			t.Errorf("%s: computed %d jobs, want %d", name, got, wantComputed)
		}
		if got := after.Shared - before.Shared; wantShared >= 0 && got != wantShared {
			t.Errorf("%s: shared %d jobs, want %d", name, got, wantShared)
		}
		counted := (after.Computed + after.Dispatched + after.Shared) - (before.Computed + before.Dispatched + before.Shared)
		if wantComputed >= 0 && counted != wantComputed+wantShared {
			t.Errorf("%s: %d cold jobs counted as computed, dispatched or shared, want %d", name, counted, wantComputed+wantShared)
		}
		if got := after.RecordsServed - before.RecordsServed; got != int64(clients*jobs) {
			t.Errorf("%s: served %d records, want %d", name, got, clients*jobs)
		}
		for c := 1; c < clients; c++ {
			if !bytes.Equal(bodies[0], bodies[c]) {
				t.Errorf("%s: client %d got a different body", name, c)
			}
		}
		if check != nil {
			check(before, after)
		}
	}

	srv, url := newServer(0, dir)
	step("fully cold", srv, url, narrow, 6, 6, 0, func(_, after Stats) {
		if after.PlanMisses < 1 || after.PlanHits+after.PlanMisses != clients || after.PlanEntries != 1 {
			t.Errorf("fully cold: plan stats %+v", after.PlanStats)
		}
	})
	step("fully warm", srv, url, narrow, 6, 0, 0, func(before, after Stats) {
		if after.Misses != before.Misses || after.PlanHits-before.PlanHits != clients {
			t.Errorf("fully warm: misses %d -> %d, plan hits %d -> %d", before.Misses, after.Misses, before.PlanHits, after.PlanHits)
		}
	})
	step("partly warm", srv, url, wide, 10, 4, 0, func(_, after Stats) {
		if after.PlanEntries != 2 {
			t.Errorf("partly warm: %d plans, want 2", after.PlanEntries)
		}
	})

	step("shared runs", srv, url, paged, 24, 12, 8, nil)

	// A restarted server over the same directory: every first read of a
	// record is a disk hit, and still exactly one count per probe.
	srv, url = newServer(0, dir)
	step("disk revisit", srv, url, wide, 10, 0, 0, func(_, after Stats) {
		if after.DiskHits < 10 || after.Misses != 0 {
			t.Errorf("disk revisit: disk hits %d (want every record's first read), misses %d", after.DiskHits, after.Misses)
		}
	})

	// Plan cached, records gone: a one-entry memory tier with no disk
	// behind it has forgotten (almost) everything by the second round,
	// which must go down the cold path with the cached plan's hashes.
	srv, url = newServer(1, "")
	step("tiny store, first round", srv, url, narrow, 6, -1, -1, nil)
	step("tiny store, plan hit and store miss", srv, url, narrow, 6, -1, -1, func(before, after Stats) {
		if after.PlanHits-before.PlanHits != clients {
			t.Errorf("tiny store: plan hits moved by %d, want %d", after.PlanHits-before.PlanHits, clients)
		}
		if after.Misses == before.Misses || after.Computed == before.Computed {
			t.Errorf("tiny store: second round did not take the cold path (misses %d -> %d, computed %d -> %d)",
				before.Misses, after.Misses, before.Computed, after.Computed)
		}
	})
}

// TestServeBodiesMatchCLI: for one selection per scenario set the cold
// body, the warm body and what `msvdsm grid -format json` prints (the
// same Selection through Grid.Run and harness.WriteJSON) are the same
// bytes, /v1/spec answers a plan hit with the plan miss's bytes, and
// the cold path runs as many simulations as harness.RunKeys predicts.
func TestServeBodiesMatchCLI(t *testing.T) {
	srv, ts := testServer(t, Options{Workers: 2})
	var duplicates int64 // jobs whose run key an earlier job of their selection has
	for _, set := range harness.ScenarioSets() {
		sel := harness.Selection{Apps: []string{"ep", "is-small"}, Backends: []string{"seq", "tmk", "pvm"}, Scenarios: []string{set}, NProcs: []int{2}}
		if set == "bigp" {
			sel.NProcs = []int{16}
		}
		grid, err := sel.Resolve(0.01)
		if err != nil {
			t.Fatalf("%s: %v", set, err)
		}
		recs, err := grid.Run()
		if err != nil {
			t.Fatalf("%s: %v", set, err)
		}
		jobs, err := grid.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		keys := harness.RunKeys(jobs)
		slices.Sort(keys)
		duplicates += int64(len(keys) - len(slices.Compact(keys)))
		var cli bytes.Buffer
		if err := harness.WriteJSON(&cli, recs); err != nil {
			t.Fatal(err)
		}

		q := fmt.Sprintf("?apps=ep,is-small&backends=seq,tmk,pvm&scenarios=%s&nprocs=%d", set, sel.NProcs[0])
		_, spec := get(t, ts.URL+"/v1/spec"+q)
		for _, temp := range []string{"cold", "warm"} {
			status, body := get(t, ts.URL+"/v1/grid"+q)
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", set, temp, status, body)
			}
			if !bytes.Equal(body, cli.Bytes()) {
				t.Fatalf("%s: %s body differs from the CLI's:\nserve:\n%s\nCLI:\n%s", set, temp, body, cli.Bytes())
			}
		}
		if _, again := get(t, ts.URL+"/v1/spec"+q); !bytes.Equal(spec, again) {
			t.Fatalf("%s: /v1/spec body changed between plan miss and plan hit", set)
		}
	}
	// One resolve per selection (its /v1/spec; the three requests after
	// it reuse the plan), and every distinct record computed once or
	// shared: a selection's cold jobs take one run per run key.
	sets := int64(len(harness.ScenarioSets()))
	if st := srv.Stats(); st.PlanMisses != sets || st.PlanHits != 3*sets || st.Computed+st.Shared != st.Misses ||
		st.Shared != duplicates || int(st.Misses) != st.Entries {
		t.Fatalf("stats after %d selections (%d duplicate runs predicted): %+v", sets, duplicates, st)
	}
}

// TestPlanCacheBound pins the fixed bound: the cache never holds more
// than maxPlanHashes hashes, empties itself rather than overflow, and
// does not keep a plan that is over the bound by itself.
func TestPlanCacheBound(t *testing.T) {
	var c planCache
	quarter := &plan{hashes: make([]string, maxPlanHashes/4)}
	for i := 0; i < 4; i++ {
		c.put(fmt.Sprint(i), quarter)
	}
	if st := c.stats(); st.PlanEntries != 4 || c.hashes != maxPlanHashes {
		t.Fatalf("four quarter plans: %d entries, %d hashes", st.PlanEntries, c.hashes)
	}
	c.put("0", quarter) // replacing a plan is not growth
	if st := c.stats(); st.PlanEntries != 4 || c.hashes != maxPlanHashes {
		t.Fatalf("after replacing a plan: %d entries, %d hashes", st.PlanEntries, c.hashes)
	}
	c.put("one more", &plan{hashes: make([]string, 1)})
	if st := c.stats(); st.PlanEntries != 1 || c.hashes != 1 || c.get("one more") == nil || c.get("0") != nil {
		t.Fatalf("overflow did not flush down to the new plan: %d entries, %d hashes", st.PlanEntries, c.hashes)
	}
	c.put("huge", &plan{hashes: make([]string, maxPlanHashes+1)})
	if c.get("huge") != nil || c.hashes != 1 {
		t.Fatal("a plan over the bound was kept")
	}
	if st := c.stats(); st.PlanHits != 1 || st.PlanMisses != 2 {
		t.Fatalf("get counting: %+v", st)
	}

	a := gridRequest{Selection: harness.Selection{Apps: []string{"a", "b"}}}
	b := gridRequest{Selection: harness.Selection{Apps: []string{"a;b"}}}
	ab := gridRequest{Selection: harness.Selection{Apps: []string{"a"}, Backends: []string{"b"}}}
	if planKey(a, 1) == planKey(b, 1) || planKey(a, 1) == planKey(ab, 1) || planKey(a, 1) == planKey(a, 0.5) {
		t.Fatal("distinct selections share a plan key")
	}
}
