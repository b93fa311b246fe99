package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
)

// TestSelectionSurfacesAgree feeds the same comma-separated selections to
// `msvdsm grid`'s flags and to /v1/spec's query parameters: both accept
// or both reject, a rejection names the same field, and an acceptance
// enumerates the same jobs.
func TestSelectionSurfacesAgree(t *testing.T) {
	const scale = 0.01
	ts := httptest.NewServer(serve.New(serve.Options{Scale: scale}).Handler())
	defer ts.Close()

	for _, tc := range []struct {
		apps, scenarios, nprocs string
		field                   string // rejected naming this field; "" accepts
		procs                   []int  // accepted: the jobs' processor counts
	}{
		{"ep", "base", "2,4", "", []int{2, 4}},
		{"ep", "base", "2,,4", "", []int{2, 4}},
		{" ep ,", "base", " 2 , 4 ,", "", []int{2, 4}},
		{"ep", "base", "", "", []int{8}},
		{"ep", "base", "zero", "nprocs", nil},
		{"ep", "base", "0", "nprocs", nil},
		{"ep", "base", "-3", "nprocs", nil},
		{"ep", "base", "99999999999999999999", "nprocs", nil},
		{"ep", "base", fmt.Sprint(harness.MaxProcs + 1), "nprocs", nil},
		{"ep", "slow", "2000000000", "nprocs", nil},
		{"nosuch", "base", "2", "apps", nil},
		{"ep", "bigp", "8", "scenarios", nil},
	} {
		name := fmt.Sprintf("apps=%q scenarios=%q nprocs=%q", tc.apps, tc.scenarios, tc.nprocs)

		// The CLI: the grid command's flags, resolved and enumerated.
		var cliField string
		var cliProcs []int
		sel, err := parseGridFlags([]string{"-apps", tc.apps, "-backends", "tmk",
			"-scenarios", tc.scenarios, "-nprocs", tc.nprocs})
		var g harness.Grid
		if err == nil {
			g, err = sel.Resolve(scale)
		}
		if err == nil {
			jobs, jerr := g.Jobs()
			if jerr != nil {
				t.Fatalf("%s: CLI grid does not enumerate: %v", name, jerr)
			}
			for _, j := range jobs {
				cliProcs = append(cliProcs, j.Scenario.Procs)
			}
		} else {
			var fe *harness.FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("%s: CLI error %v is not a field error", name, err)
			}
			cliField = fe.Field
		}

		// The service: the same lists as /v1/spec query parameters.
		q := url.Values{"apps": {tc.apps}, "backends": {"tmk"}, "scenarios": {tc.scenarios}, "nprocs": {tc.nprocs}}
		resp, err := http.Get(ts.URL + "/v1/spec?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Field string `json:"field"`
			Jobs  []struct {
				Procs int `json:"procs"`
			} `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: service body: %v", name, err)
		}
		var srvProcs []int
		for _, j := range body.Jobs {
			srvProcs = append(srvProcs, j.Procs)
		}
		wantStatus := http.StatusOK
		if tc.field != "" {
			wantStatus = http.StatusBadRequest
		}
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: service status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		if cliField != tc.field || body.Field != tc.field {
			t.Errorf("%s: rejected field: CLI %q, service %q, want %q", name, cliField, body.Field, tc.field)
		}
		if !slices.Equal(cliProcs, tc.procs) || !slices.Equal(srvProcs, tc.procs) {
			t.Errorf("%s: processor counts: CLI %v, service %v, want %v", name, cliProcs, srvProcs, tc.procs)
		}
	}
}
