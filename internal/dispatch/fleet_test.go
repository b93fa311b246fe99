// Package dispatch_test holds the fleet end-to-end suite: a real serve
// API over a real dispatcher, workers speaking the HTTP protocol, and
// injected crashes/stalls mid-sweep — asserting the response bytes
// never differ from the local serial run.  It lives outside package
// dispatch because it imports internal/serve, which imports dispatch.
package dispatch_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/harness"
	"repro/internal/serve"
)

const (
	fleetScale = 0.01
	fleetQuery = "/v1/grid?apps=ep,is-small&backends=tmk,pvm&scenarios=base&nprocs=2,4&scale=0.01"
)

// fleetOracle computes the sweep the boring way: serial, local, no
// cache, no fleet — the byte-identity reference.
func fleetOracle(t *testing.T) []byte {
	t.Helper()
	sel := harness.Selection{
		Apps:      []string{"ep", "is-small"},
		Backends:  []string{"tmk", "pvm"},
		Scenarios: []string{"base"},
		NProcs:    []int{2, 4},
	}
	grid, err := sel.Resolve(fleetScale)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := grid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := harness.RunJobs(jobs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleetServer boots a serve API fronting a dispatcher with fast
// recovery intervals.
func fleetServer(t *testing.T, cfg dispatch.Config) (*serve.Server, *dispatch.Dispatcher, *httptest.Server) {
	t.Helper()
	store, err := serve.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	d := dispatch.New(cfg)
	t.Cleanup(d.Close)
	srv := serve.New(serve.Options{Scale: fleetScale, Workers: 2, Store: store, Dispatcher: d})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, d, ts
}

func httpGet(t *testing.T, url string) (int, []byte) {
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

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFleetByteIdenticalUnderFaults is the acceptance sweep: three
// workers — one crashes on its first job (heartbeats cease, like a
// SIGKILL), one stalls on its first job holding the lease forever, one
// healthy — and the grid response must still be byte-identical to the
// local serial run, with the recoveries visible in the stats.
func TestFleetByteIdenticalUnderFaults(t *testing.T) {
	want := fleetOracle(t)

	srv, d, ts := fleetServer(t, dispatch.Config{
		LeaseTTL:  1 * time.Second,        // hedge at 500ms
		Heartbeat: 100 * time.Millisecond, // liveness 300ms
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 3)
	for _, w := range []struct {
		name   string
		faults dispatch.FaultConfig
	}{
		{"crasher", dispatch.FaultConfig{CrashOnJob: 1}},
		{"staller", dispatch.FaultConfig{StallOnJob: 1}},
		{"healthy", dispatch.FaultConfig{}},
	} {
		wk := dispatch.NewWorker(dispatch.WorkerOptions{
			Coordinator: ts.URL,
			Name:        w.name,
			PollWait:    50 * time.Millisecond,
			Faults:      w.faults,
		})
		go func() { runErr <- wk.Run(ctx) }()
	}
	waitCond(t, "3 workers registered", func() bool {
		st := d.Stats()
		return st.WorkersLive+st.WorkersDraining == 3
	})

	status, body := httpGet(t, ts.URL+fleetQuery)
	if status != http.StatusOK {
		t.Fatalf("fleet sweep: status %d, body %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("fleet sweep bytes differ from local serial run:\nfleet: %s\nlocal: %s", body, want)
	}

	// The crasher must have died on a job (revoked at the liveness
	// deadline, and its job reassigned), and the staller's lease must
	// have been hedged onto the healthy worker at 500ms, before it
	// expires at 1s — the sweep could not have finished otherwise.
	st := srv.Stats()
	if st.Dispatch == nil {
		t.Fatal("stats missing dispatch section")
	}
	if st.Dispatch.WorkersLost < 1 {
		t.Errorf("workers_lost = %d, want >= 1 (crashed worker)", st.Dispatch.WorkersLost)
	}
	if st.Dispatch.Hedged < 1 {
		t.Errorf("hedged = %d, want >= 1 (stalled worker)", st.Dispatch.Hedged)
	}
	if st.Dispatch.Reassigned < 1 {
		t.Errorf("reassigned = %d, want >= 1 (crashed worker)", st.Dispatch.Reassigned)
	}
	if st.Dispatched < 1 {
		t.Errorf("dispatched = %d, want >= 1", st.Dispatched)
	}
	if st.Dispatched+st.Fallbacks != 8 || st.RecordsServed != 8 {
		t.Errorf("dispatched=%d fallbacks=%d records=%d, want dispatched+fallbacks == records == 8",
			st.Dispatched, st.Fallbacks, st.RecordsServed)
	}

	// A warm replay needs no fleet at all and returns the same bytes.
	status, warm := httpGet(t, ts.URL+fleetQuery)
	if status != http.StatusOK || !bytes.Equal(warm, want) {
		t.Fatalf("warm replay: status %d, bytes equal %v", status, bytes.Equal(warm, want))
	}

	cancel()
	var crashed, stalled bool
	for i := 0; i < 3; i++ {
		select {
		case err := <-runErr:
			switch {
			case errors.Is(err, dispatch.ErrCrashed):
				crashed = true
			case errors.Is(err, dispatch.ErrStalled):
				stalled = true
			case err != nil:
				t.Errorf("worker exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit after drain")
		}
	}
	if !crashed || !stalled {
		t.Errorf("crashed=%v stalled=%v, want both injected faults to have fired", crashed, stalled)
	}
}

// TestFleetDrainFallsBackLocal drains the only worker mid-sweep (its
// context cancels while it stalls on its third job) and checks the
// sweep still completes with the exact serial bytes: dispatched jobs
// from before the drain, local fallback for the rest.
func TestFleetDrainFallsBackLocal(t *testing.T) {
	want := fleetOracle(t)

	srv, _, ts := fleetServer(t, dispatch.Config{
		LeaseTTL:  1 * time.Second,
		Heartbeat: 100 * time.Millisecond,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wk := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator: ts.URL,
		Name:        "drainee",
		PollWait:    50 * time.Millisecond,
		Faults:      dispatch.FaultConfig{StallOnJob: 3},
	})
	runErr := make(chan error, 1)
	go func() { runErr <- wk.Run(ctx) }()
	waitCond(t, "worker registered", func() bool { return srv.Stats().Dispatch.WorkersLive == 1 })

	sweep := make(chan []byte, 1)
	go func() {
		_, body := httpGet(t, ts.URL+fleetQuery)
		sweep <- body
	}()

	// Let the fleet serve two jobs, then pull the worker out from under
	// the sweep (it is wedged on its third lease by then, or about to
	// be — either way the drain must hand the rest back to local
	// compute).
	waitCond(t, "2 jobs dispatched", func() bool { return srv.Stats().Dispatched >= 2 })
	cancel()

	select {
	case body := <-sweep:
		if !bytes.Equal(body, want) {
			t.Fatalf("drained sweep bytes differ from local serial run:\nfleet: %s\nlocal: %s", body, want)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not complete after worker drain")
	}

	st := srv.Stats()
	if st.Dispatched < 2 || st.Fallbacks < 1 || st.Computed < 1 {
		t.Errorf("dispatched=%d fallbacks=%d computed=%d, want >=2/>=1/>=1",
			st.Dispatched, st.Fallbacks, st.Computed)
	}
	if st.Dispatched+st.Fallbacks != 8 {
		t.Errorf("dispatched=%d + fallbacks=%d != 8 jobs", st.Dispatched, st.Fallbacks)
	}

	select {
	case err := <-runErr:
		if err != nil && !errors.Is(err, dispatch.ErrStalled) {
			t.Errorf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit")
	}
}

// TestFleetNoWorkersComputesLocally checks a dispatcher-equipped server
// with an empty fleet behaves exactly like a plain one: local compute,
// no fallback counting (nothing was ever dispatched), same bytes.
func TestFleetNoWorkersComputesLocally(t *testing.T) {
	want := fleetOracle(t)
	srv, _, ts := fleetServer(t, dispatch.Config{})

	status, body := httpGet(t, ts.URL+fleetQuery)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("empty-fleet sweep bytes differ from local serial run")
	}
	st := srv.Stats()
	if st.Computed != 8 || st.Dispatched != 0 || st.Fallbacks != 0 {
		t.Errorf("computed=%d dispatched=%d fallbacks=%d, want 8/0/0", st.Computed, st.Dispatched, st.Fallbacks)
	}
	if st.Dispatch == nil {
		t.Error("stats missing dispatch section")
	}
}

// TestWorkerRejectCompletesElsewhere runs a two-worker fleet where one
// worker rejects its first job with an injected error: the job must be
// requeued and completed by the other worker, not failed.
func TestWorkerRejectCompletesElsewhere(t *testing.T) {
	want := fleetOracle(t)
	srv, d, ts := fleetServer(t, dispatch.Config{
		LeaseTTL:  2 * time.Second,
		Heartbeat: 100 * time.Millisecond,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 2)
	for i, faults := range []dispatch.FaultConfig{{RejectOnJob: 1}, {}} {
		wk := dispatch.NewWorker(dispatch.WorkerOptions{
			Coordinator: ts.URL,
			Name:        fmt.Sprintf("w%d", i),
			PollWait:    50 * time.Millisecond,
			Faults:      faults,
		})
		go func() { runErr <- wk.Run(ctx) }()
	}
	waitCond(t, "2 workers registered", func() bool { return d.Stats().WorkersLive == 2 })

	status, body := httpGet(t, ts.URL+fleetQuery)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("reject-fleet sweep bytes differ from local serial run")
	}
	st := srv.Stats()
	if st.Dispatch.WorkerErrors < 1 || st.Dispatch.Reassigned < 1 {
		t.Errorf("worker_errors=%d reassigned=%d, want >= 1 each", st.Dispatch.WorkerErrors, st.Dispatch.Reassigned)
	}
	if st.Dispatched != 8 || st.Computed != 0 {
		t.Errorf("dispatched=%d computed=%d, want 8/0 (rejected job completes on the other worker)", st.Dispatched, st.Computed)
	}

	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-runErr:
			if err != nil {
				t.Errorf("worker exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker did not exit after drain")
		}
	}
}
