package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// child starts this test binary as `msvdsm <args>` (TestMain) and
// returns it with its stdout, which must be read if the child writes to
// it.  It is killed when the test ends, and its
// stderr is logged if the test failed.
func child(t *testing.T, args ...string) (*exec.Cmd, io.Reader) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	stdout, w := io.Pipe()
	stderr := new(syncBuffer)
	cmd.Stdout, cmd.Stderr = w, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		stdout.Close() // unblocks the copy of output no one reads
		cmd.Wait()
		if t.Failed() {
			t.Logf("msvdsm %s:\n%s", strings.Join(args, " "), stderr)
		}
	})
	return cmd, stdout
}

// waitStats polls a server's /v1/stats until cond holds.
func waitStats(t *testing.T, base, what string, cond func(serve.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond(stats(t, base)) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 20s for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetWorkerLoss runs a coordinator and a worker as processes, and
// SIGKILLs the worker mid-sweep.  The victim wedges on its first lease
// (-fault-stall-on 1), so the sweep cannot finish until that lease is
// recovered from the lost worker and reassigned to the survivor, which
// joins only once the lease is out.  The sweep's body must still be the
// local CLI's, byte for byte, and the coordinator must drain cleanly
// (exit 0) within a second of SIGTERM, though the survivor is in a
// lease long-poll.
func TestFleetWorkerLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("starts processes and waits out a worker's liveness window")
	}
	t.Parallel()
	local := msvdsm(t, "-scale", "0.02", "-format", "json", "grid",
		"-apps", "sor-nonzero,is-small", "-backends", "tmk,pvm", "-scenarios", "base", "-nprocs", "2,4")

	coord, stdout := child(t, "-scale", "0.02", "serve", "-addr", "127.0.0.1:0", "-workers", "-heartbeat", "300ms")
	base := listenURL(t, stdout)
	victim, _ := child(t, "worker", "-coordinator", base, "-name", "victim", "-fault-stall-on", "1")
	waitStats(t, base, "the victim to register", func(s serve.Stats) bool { return s.Dispatch.WorkersLive == 1 })

	type reply struct {
		status int
		body   []byte
		err    error
	}
	sweep := make(chan reply, 1)
	go func() {
		resp, err := http.Get(base + "/v1/grid?apps=sor-nonzero,is-small&backends=tmk,pvm&scenarios=base&nprocs=2,4")
		if err != nil {
			sweep <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		sweep <- reply{resp.StatusCode, body, err}
	}()
	waitStats(t, base, "the victim's lease", func(s serve.Stats) bool { return s.Dispatch.LeasesOutstanding == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	survivorErr := new(syncBuffer)
	survivor := make(chan int, 1)
	go func() {
		survivor <- run(ctx, []string{"worker", "-coordinator", base, "-name", "survivor"}, io.Discard, survivorErr)
	}()
	t.Cleanup(func() {
		cancel()
		if code := <-survivor; code != 0 {
			t.Errorf("survivor: exit %d after its context was cancelled\n%s", code, survivorErr)
		}
	})
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	r := <-sweep
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("sweep: status %d, %v: %s", r.status, r.err, r.body)
	}
	if !bytes.Equal(r.body, local) {
		t.Errorf("fleet body differs from the local CLI's:\n%s\nvs\n%s", r.body, local)
	}
	s := stats(t, base)
	if d := s.Dispatch; d.WorkersLost < 1 || d.Reassigned < 1 || s.Dispatched != 8 || s.Computed != 0 {
		t.Errorf("workers_lost %d, reassigned %d, dispatched %d, computed %d; want >= 1, >= 1, 8, 0",
			d.WorkersLost, d.Reassigned, s.Dispatched, s.Computed)
	}

	// The survivor is long-polling (2 s); the draining coordinator must
	// answer that poll at once rather than wait it out.
	start := time.Now()
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(); err != nil {
		t.Errorf("coordinator after SIGTERM: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("coordinator took %v to exit after SIGTERM, want under 1s", took)
	}
}
