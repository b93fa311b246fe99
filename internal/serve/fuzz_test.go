package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// FuzzGridRequest feeds /v1/grid requests through the server's own
// parse and plan: a GET query string when post is false, a POST body
// when it is true.  Every request must end in a *harness.FieldError, or
// in a plan at a workload scale in (0, 1] whose every job has a spec
// hash.  The seed corpus in testdata/fuzz holds valid selections, the
// default-scale zero, and scales that are negative, past paper scale,
// NaN, Inf and unparsable.
func FuzzGridRequest(f *testing.F) {
	srv := New(Options{Scale: 0.01})
	f.Fuzz(func(t *testing.T, post bool, in string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/grid", RawQuery: in}}
		if post {
			r = httptest.NewRequest(http.MethodPost, "/v1/grid", strings.NewReader(in))
		}
		req, err := parseRequest(r)
		if err != nil {
			fieldError(t, "parseRequest", err)
			return
		}
		if len(req.Apps) > 4 || len(req.Backends) > 4 || len(req.Scenarios) > 4 || len(req.NProcs) > 4 {
			t.Skip() // keeps the grid, and so SpecHashes, small
		}
		p, err := srv.plan(req)
		if err != nil {
			fieldError(t, "plan", err)
			return
		}
		if scale := p.ref.Scale; !(scale > 0 && scale <= 1) {
			t.Fatalf("planned at scale %g, outside (0, 1]", scale)
		}
		if len(p.hashes) != len(p.jobs) {
			t.Fatalf("%d spec hashes for %d jobs", len(p.hashes), len(p.jobs))
		}
		for i, h := range p.hashes {
			if h == "" {
				t.Fatalf("job %d has no spec hash", i)
			}
		}
	})
}

// FuzzStoreLoad writes arbitrary bytes as a job's <hash>.json in a disk
// tier.  A fresh store must read them back as a miss, or as a record of
// that job whose RecordJSON decodes to the same record; a server over
// another fresh store must answer the job's /v1/grid with 200 and a
// record of that job, from the file or by computing the job.  The seed
// corpus in testdata/fuzz holds a valid record of another job, a
// truncated one, null, and a value of the wrong type in each field in
// turn.
func FuzzStoreLoad(f *testing.F) {
	dir := f.TempDir()
	srv := New(Options{Scale: 0.01})
	const query = "/v1/grid?apps=ep&backends=pvm&scenarios=base&nprocs=2"
	p, err := srv.plan(gridRequest{Selection: harness.Selection{Apps: []string{"ep"}, Backends: []string{"pvm"}, Scenarios: []string{"base"}, NProcs: []int{2}}})
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, p.hashes[0]+".json")
	fresh := func(t *testing.T) *Store {
		store, err := NewStore(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		job := &p.jobs[0]
		if rec, _, ok := fresh(t).lookup(p.hashes[0], true, job); ok {
			frag, err := harness.RecordJSON(rec)
			var back harness.Record
			if err == nil {
				err = json.Unmarshal(frag, &back)
			}
			if err != nil || back != rec || !job.Names(rec) {
				t.Fatalf("loaded %+v, which reads back as %+v (%v)", rec, back, err)
			}
		}
		srv.opts.Store = fresh(t)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, query, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("/v1/grid status %d: %s", w.Code, w.Body.Bytes())
		}
		var recs []harness.Record
		if err := json.Unmarshal(w.Body.Bytes(), &recs); err != nil || len(recs) != 1 || !job.Names(recs[0]) {
			t.Fatalf("/v1/grid served %s for %s/%s/%s P=%d (%v)", w.Body.Bytes(), job.App.Name(), job.Backend.Name(), job.Scenario.Name, job.Scenario.Procs, err)
		}
	})
}

// fieldError fails t unless err is a *harness.FieldError itself.
func fieldError(t *testing.T, where string, err error) {
	t.Helper()
	var fe *harness.FieldError
	if !errors.As(err, &fe) || error(fe) != err {
		t.Fatalf("%s error %T is not a *harness.FieldError: %v", where, err, err)
	}
}
