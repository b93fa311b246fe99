package main

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
	"net/url"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/serve"
)

// asMain is the environment variable under which this test binary runs
// as msvdsm itself, so a test can start the command as a child process
// without building it.
const asMain = "MSVDSM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// msvdsm runs the command in-process to completion and returns what it
// printed on stdout, failing the test unless it exits 0.
func msvdsm(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("msvdsm %s: exit %d\n%s", strings.Join(args, " "), code, stderr.Bytes())
	}
	return stdout.Bytes()
}

// records decodes a JSON record document as jq sees it: one map per
// record.
func records(t *testing.T, doc []byte) []map[string]any {
	t.Helper()
	var recs []map[string]any
	if err := json.Unmarshal(doc, &recs); err != nil {
		t.Fatalf("undecodable records: %v", err)
	}
	return recs
}

// num is a record's numeric field, 0 when the record omits it.
func num(rec map[string]any, field string) float64 {
	v, _ := rec[field].(float64)
	return v
}

// requireFields fails unless there are records and every one has every
// named field.
func requireFields(t *testing.T, recs []map[string]any, fields ...string) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for i, r := range recs {
		for _, f := range fields {
			if _, ok := r[f]; !ok {
				t.Errorf("record %d has no %q: %v", i, f, r)
			}
		}
	}
}

// requireCells fails unless recs are the cells of the grids' jobs, in
// order: app, backend, scenario and processor count.
func requireCells(t *testing.T, recs []map[string]any, grids ...harness.Grid) {
	t.Helper()
	var want, got []string
	for _, g := range grids {
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			want = append(want, fmt.Sprintf("%s/%s/%s/%d", j.App.Name(), j.Backend.Name(), j.Scenario.Name, j.Scenario.Procs))
		}
	}
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%s/%s/%s/%v", r["app"], r["backend"], r["scenario"], r["procs"]))
	}
	if !slices.Equal(got, want) {
		t.Errorf("%d cells, want %d:\n%s\nwant\n%s", len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCommands runs command lines in-process and checks what they print.
func TestCommands(t *testing.T) {
	t.Parallel() // beside TestFleetWorkerLoss, which mostly waits
	for _, tc := range []struct {
		name  string
		args  []string
		check func(t *testing.T, out []byte)
	}{
		// A small grid with a backend variant and five scenario sets emits
		// records that carry the fields downstream tools rely on.
		{"json grid", []string{"-scale", "0.02", "-format", "json", "grid",
			"-apps", "sor-nonzero", "-backends", "tmk,pvm,pvm-xdr,tmk-sc",
			"-scenarios", "base,page,bw,lat,handler", "-nprocs", "2"},
			func(t *testing.T, out []byte) {
				requireFields(t, records(t, out), "app", "backend", "scenario", "procs", "time_ns", "messages", "bytes")
			}},
		// Lossy and partitioned grids complete (the reliability layers
		// recover every run) and report their drops and retransmissions.
		{"fault grid", []string{"-scale", "0.02", "-format", "json", "grid",
			"-apps", "sor-nonzero,is-small", "-backends", "tmk,pvm",
			"-scenarios", "loss,partition", "-nprocs", "4"},
			func(t *testing.T, out []byte) {
				recs := records(t, out)
				requireFields(t, recs, "app", "backend", "scenario", "procs", "time_ns")
				if !slices.ContainsFunc(recs, func(r map[string]any) bool { return num(r, "dropped") > 0 && num(r, "retrans") > 0 }) {
					t.Error("no record with both dropped > 0 and retrans > 0")
				}
			}},
		// The combining-tree variant at 64 processors.
		{"bigp", []string{"-scale", "0.1", "-format", "json", "grid",
			"-apps", "sor-zero", "-backends", "tmk-tree", "-scenarios", "bigp", "-nprocs", "64"},
			func(t *testing.T, out []byte) {
				recs := records(t, out)
				if len(recs) == 0 {
					t.Fatal("no records")
				}
				for _, r := range recs {
					if num(r, "procs") != 64 || r["scenario"] != "bigp" || num(r, "time_ns") <= 0 || num(r, "messages") <= 0 {
						t.Errorf("want procs 64, scenario bigp and positive time_ns and messages: %v", r)
					}
				}
			}},
		// A pool prints exactly the serial bytes.
		{"pool width", []string{"-scale", "0.02", "-format", "csv", "-j", "1", "grid",
			"-apps", "sor-nonzero,is-small", "-backends", "tmk,pvm", "-nprocs", "2,4"},
			func(t *testing.T, serial []byte) {
				pool := msvdsm(t, "-scale", "0.02", "-format", "csv", "-j", "8", "grid",
					"-apps", "sor-nonzero,is-small", "-backends", "tmk,pvm", "-nprocs", "2,4")
				if !bytes.Equal(serial, pool) {
					t.Errorf("-j 8 output differs from -j 1:\n%s\nvs\n%s", pool, serial)
				}
			}},
		// Below -procs 8 the figures stop short of Table 2's column, so
		// its 24 records follow the figures'.  As text, each view renders
		// its own grid's records.
		{"all below procs 8", []string{"-scale", "0.01", "-procs", "4", "-format", "json", "all"},
			func(t *testing.T, out []byte) {
				apps := harness.Apps(0.01)
				requireCells(t, records(t, out), harness.FiguresGrid(apps, 4), harness.Table2Grid(apps))
				var recs []harness.Record
				if err := json.Unmarshal(out, &recs); err != nil || len(recs) < 24 {
					t.Fatalf("%d records: %v", len(recs), err)
				}
				figures, table2 := recs[:len(recs)-24], recs[len(recs)-24:]
				want := harness.RenderTable1(figures) + "\n" + harness.RenderTable2(table2) + "\n" + renderFigures(figures) + "\n"
				if text := msvdsm(t, "-scale", "0.01", "-procs", "4", "all"); string(text) != want {
					t.Errorf("all as text:\n%s\nwant\n%s", text, want)
				}
			}},
		// At -procs 8 the figures hold every table cell.
		{"all at procs 8", []string{"-scale", "0.01", "-format", "json", "all"},
			func(t *testing.T, out []byte) {
				requireCells(t, records(t, out), harness.FiguresGrid(harness.Apps(0.01), 8))
			}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, msvdsm(t, tc.args...)) })
	}
}

// TestExitCodes checks the exit code and the stream of a command line
// that fails.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string // in stderr
	}{
		{nil, 2, "usage: msvdsm"},
		{[]string{"nosuch"}, 2, `unknown command "nosuch"`},
		{[]string{"-format", "xml", "list"}, 2, `unknown format "xml"`},
		{[]string{"-bogus", "list"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"fig"}, 2, "msvdsm fig <name>"},
		{[]string{"-scale", "0.01", "fig", "nosuch"}, 1, `unknown experiment "nosuch"`},
		{[]string{"-h"}, 0, "usage: msvdsm"},
		{[]string{"worker"}, 1, "-coordinator is required"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.msg) || stdout.Len() != 0 {
			t.Errorf("msvdsm %q: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr", tc.args, code, stdout.Bytes(), stderr.Bytes(), tc.code, tc.msg)
		}
	}
}

// syncBuffer is a bytes.Buffer a running command and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// listenRE is how the benchmark's host reads a server's address.
var listenRE = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// listenURL reads a server's stdout: its first line must announce the
// address, and the rest is discarded.
func listenURL(t *testing.T, stdout io.Reader) string {
	t.Helper()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatal("the server printed no line")
	}
	go io.Copy(io.Discard, stdout)
	m := listenRE.FindStringSubmatch(sc.Text())
	if m == nil {
		t.Fatalf("first line %q announces no address", sc.Text())
	}
	return m[1]
}

// startServe runs `msvdsm <args>` for a serve command in-process and
// returns its base URL.  When the test ends it cancels the command's
// context and requires a clean drain: exit 0.
func startServe(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout, w := io.Pipe()
	stderr := new(syncBuffer)
	exit := make(chan int, 1)
	go func() {
		code := run(ctx, args, w, stderr)
		w.Close()
		exit <- code
	}()
	t.Cleanup(func() {
		cancel()
		if code := <-exit; code != 0 {
			t.Errorf("msvdsm %s: exit %d after its context was cancelled\n%s", strings.Join(args, " "), code, stderr)
		}
	})
	return listenURL(t, stdout)
}

// get fetches url and returns its status and body.
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

// get200 fetches url and returns its body, failing the test unless the
// status is 200.
func get200(t *testing.T, url string) []byte {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	return body
}

// stats reads a server's /v1/stats.
func stats(t *testing.T, base string) serve.Stats {
	t.Helper()
	var s serve.Stats
	if err := json.Unmarshal(get200(t, base+"/v1/stats"), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServe runs each check against a fresh `msvdsm -scale 0.02 serve`.
func TestServe(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func(t *testing.T, base string)
	}{
		// A combination the DSM refuses (the tree barrier on a lossy
		// network) is a 400 the server survives.  Then one small grid
		// cold and again warm: the bodies are byte-identical, and the
		// counters show each job computed once.
		{"cold then warm", func(t *testing.T, base string) {
			if code, body := get(t, base+"/v1/grid?apps=ep&backends=tmk-tree&scenarios=loss&nprocs=4"); code != http.StatusBadRequest {
				t.Errorf("tmk-tree under loss: status %d, want 400: %s", code, body)
			}
			q := base + "/v1/grid?apps=ep&backends=tmk,pvm&scenarios=base&nprocs=2"
			cold := get200(t, q)
			if warm := get200(t, q); !bytes.Equal(cold, warm) {
				t.Errorf("warm body differs from cold:\n%s\nvs\n%s", warm, cold)
			}
			recs := records(t, cold)
			requireFields(t, recs, "app", "backend", "time_ns")
			if len(recs) != 2 {
				t.Errorf("%d records, want 2", len(recs))
			}
			if s := stats(t, base); s.Computed != 2 || s.Hits != 2 || s.Misses != 2 {
				t.Errorf("computed %d, hits %d, misses %d; want 2 each", s.Computed, s.Hits, s.Misses)
			}
		}},
		// A selection whose 12 jobs are 6 runs (tmk at base and at
		// page=4096 are one run, the six pvm jobs another): the body is
		// the CLI's, byte for byte, with 6 jobs computed and 6 shared.
		{"shared runs", func(t *testing.T, base string) {
			body := get200(t, base+"/v1/grid?apps=is-small&backends=tmk,pvm&scenarios=base,page&nprocs=2")
			cli := msvdsm(t, "-scale", "0.02", "-format", "json", "grid",
				"-apps", "is-small", "-backends", "tmk,pvm", "-scenarios", "base,page", "-nprocs", "2")
			if !bytes.Equal(body, cli) {
				t.Errorf("served body differs from the CLI's:\n%s\nvs\n%s", body, cli)
			}
			if s := stats(t, base); s.Computed != 6 || s.Shared != 6 {
				t.Errorf("computed %d, shared %d; want 6 each", s.Computed, s.Shared)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, startServe(t, "-scale", "0.02", "serve", "-addr", "127.0.0.1:0"))
		})
	}
}

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
			"-scenarios", tc.scenarios, "-nprocs", tc.nprocs}, io.Discard)
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
