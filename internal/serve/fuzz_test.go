package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
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
		p, scale, err := srv.plan(req)
		if err != nil {
			fieldError(t, "plan", err)
			return
		}
		if !(scale > 0 && scale <= 1) {
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

// fieldError fails t unless err is a *harness.FieldError itself.
func fieldError(t *testing.T, where string, err error) {
	t.Helper()
	var fe *harness.FieldError
	if !errors.As(err, &fe) || error(fe) != err {
		t.Fatalf("%s error %T is not a *harness.FieldError: %v", where, err, err)
	}
}
