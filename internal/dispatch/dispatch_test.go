package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// quietCfg shrinks the lease for tests (backoff 0.75ms to 75ms, hedge
// at 75ms) and makes liveness huge so workers never die by accident;
// tests that want liveness reaping override Heartbeat themselves.
func quietCfg() Config {
	return Config{
		LeaseTTL:  150 * time.Millisecond,
		Heartbeat: 10 * time.Second,
	}
}

// TestDerivedIntervals pins the intervals the dispatcher derives from
// LeaseTTL and Heartbeat at their defaults.
func TestDerivedIntervals(t *testing.T) {
	c := Config{}.withDefaults()
	for _, tc := range []struct {
		name      string
		got, want time.Duration
	}{
		{"lease ttl", c.LeaseTTL, 10 * time.Second},
		{"heartbeat", c.Heartbeat, 2 * time.Second},
		{"liveness", c.liveness(), 6 * time.Second},
		{"first backoff", c.backoff(1), 50 * time.Millisecond},
		{"second backoff", c.backoff(2), 100 * time.Millisecond},
		{"fourth backoff", c.backoff(4), 400 * time.Millisecond},
		{"backoff cap", c.backoff(maxFailures + 10), 5 * time.Second},
		{"hedge after", c.hedgeAfter(), 5 * time.Second},
		{"reaper tick", c.reapTick(), 25 * time.Millisecond},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if maxFailures != 5 {
		t.Errorf("maxFailures = %d, want 5", maxFailures)
	}
}

func testRecord(ns int64) harness.Record {
	return harness.Record{App: "fake", Backend: "tmk", Scenario: "base", Procs: 2, TimeNS: ns}
}

// doAsync starts a Do call and returns its result channel.
func doAsync(d *Dispatcher, hash string) chan struct {
	rec harness.Record
	err error
} {
	ch := make(chan struct {
		rec harness.Record
		err error
	}, 1)
	go func() {
		rec, err := d.Do(context.Background(), JobRef{}, hash)
		ch <- struct {
			rec harness.Record
			err error
		}{rec, err}
	}()
	return ch
}

func waitStat(t *testing.T, d *Dispatcher, what string, get func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if get(d.Stats()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats %+v", what, d.Stats())
}

// TestLeaseExpiryAndDuplicateSuppression drives the heart of the
// exactly-once argument: a lease expires, the job is reassigned, and
// then BOTH workers complete it.  The first (late, expired-lease)
// completion wins; the second is suppressed as a duplicate; the waiter
// sees exactly one record.
func TestLeaseExpiryAndDuplicateSuppression(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()
	w1, _, _ := d.Register("w1")
	w2, _, _ := d.Register("w2")

	res := doAsync(d, "job-a")
	g1, err := d.Lease(w1, time.Second)
	if err != nil || g1 == nil {
		t.Fatalf("w1 lease: %v %v", g1, err)
	}
	if g1.Hash != "job-a" {
		t.Fatalf("w1 leased %q, want job-a", g1.Hash)
	}

	waitStat(t, d, "lease expiry", func(s Stats) bool { return s.LeasesExpired >= 1 })
	waitStat(t, d, "reassignment", func(s Stats) bool { return s.Reassigned >= 1 })

	g2, err := d.Lease(w2, time.Second)
	if err != nil || g2 == nil || g2.Hash != "job-a" {
		t.Fatalf("w2 lease after expiry: %v %v", g2, err)
	}

	// The stalled worker finally reports — its lease is long dead, but
	// the result is the right bytes for this hash, so it is accepted.
	rec := testRecord(42)
	accepted, err := d.Complete(w1, g1.LeaseID, "job-a", &rec, "")
	if err != nil || !accepted {
		t.Fatalf("late completion: accepted=%v err=%v", accepted, err)
	}
	// The reassigned worker's duplicate is suppressed.
	accepted, err = d.Complete(w2, g2.LeaseID, "job-a", &rec, "")
	if err != nil || accepted {
		t.Fatalf("duplicate completion: accepted=%v err=%v, want suppressed", accepted, err)
	}

	got := <-res
	if got.err != nil || got.rec.TimeNS != 42 {
		t.Fatalf("Do returned (%+v, %v), want the completed record", got.rec, got.err)
	}
	st := d.Stats()
	if st.DuplicateCompletions != 1 || st.LateCompletions != 1 || st.Completions != 1 {
		t.Fatalf("stats: dup=%d late=%d completions=%d, want 1/1/1",
			st.DuplicateCompletions, st.LateCompletions, st.Completions)
	}
}

// TestWorkerLossRevokesLeases kills a worker by silence: its lease is
// revoked at the liveness deadline and the job lands on the survivor.
func TestWorkerLossRevokesLeases(t *testing.T) {
	cfg := quietCfg()
	cfg.LeaseTTL = 5 * time.Second        // expiry and hedging must not beat liveness here
	cfg.Heartbeat = 20 * time.Millisecond // liveness 60ms
	d := New(cfg)
	defer d.Close()

	w1, _, _ := d.Register("doomed")
	w2, _, _ := d.Register("survivor")
	// Keep the survivor alive for the whole test.
	stopHB := make(chan struct{})
	defer close(stopHB)
	go func() {
		for {
			select {
			case <-stopHB:
				return
			case <-time.After(15 * time.Millisecond):
				d.Heartbeat(w2)
			}
		}
	}()

	res := doAsync(d, "job-b")
	if g, err := d.Lease(w1, time.Second); err != nil || g == nil {
		t.Fatalf("w1 lease: %v %v", g, err)
	}
	// w1 never heartbeats again: the reaper declares it dead and
	// requeues the job.
	waitStat(t, d, "worker loss", func(s Stats) bool { return s.WorkersLost >= 1 && s.LeasesRevoked >= 1 })

	g2, err := d.Lease(w2, time.Second)
	if err != nil || g2 == nil || g2.Hash != "job-b" {
		t.Fatalf("survivor lease: %v %v", g2, err)
	}
	rec := testRecord(7)
	if accepted, err := d.Complete(w2, g2.LeaseID, "job-b", &rec, ""); err != nil || !accepted {
		t.Fatalf("survivor completion: %v %v", accepted, err)
	}
	if got := <-res; got.err != nil || got.rec.TimeNS != 7 {
		t.Fatalf("Do returned (%+v, %v)", got.rec, got.err)
	}
}

// TestRejectBackoffAndMaxAttempts fails a job's leases through
// repeated worker errors and checks the terminal failure.
func TestRejectBackoffAndMaxAttempts(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()
	w1, _, _ := d.Register("rejector")

	res := doAsync(d, "job-c")
	rejects := 0
	for rejects < maxFailures {
		g, err := d.Lease(w1, 2*time.Second)
		if err != nil {
			t.Fatalf("lease %d: %v", rejects, err)
		}
		if g == nil {
			t.Fatalf("no lease after %d rejects (backoff should requeue)", rejects)
		}
		d.Complete(w1, g.LeaseID, g.Hash, nil, "injected reject")
		rejects++
	}
	got := <-res
	if got.err == nil || !strings.Contains(got.err.Error(), "giving up") {
		t.Fatalf("Do error = %v, want terminal give-up", got.err)
	}
	st := d.Stats()
	if st.WorkerErrors != maxFailures || st.TasksFailed != 1 {
		t.Fatalf("stats: workerErrors=%d tasksFailed=%d", st.WorkerErrors, st.TasksFailed)
	}
}

// TestHedgedRedispatch lets a straggler lease age past hedgeAfter and
// checks an idle second worker gets a twin lease on the same job, and
// not before.
func TestHedgedRedispatch(t *testing.T) {
	cfg := quietCfg()
	cfg.LeaseTTL = time.Second // hedge at 500ms, well before expiry
	d := New(cfg)
	defer d.Close()
	w1, _, _ := d.Register("straggler")
	w2, _, _ := d.Register("hedger")

	res := doAsync(d, "job-d")
	g1, err := d.Lease(w1, time.Second)
	if err != nil || g1 == nil {
		t.Fatalf("w1 lease: %v %v", g1, err)
	}
	granted := time.Now()
	g2, err := d.Lease(w2, 2*time.Second)
	if err != nil || g2 == nil || g2.Hash != "job-d" {
		t.Fatalf("hedge lease: %v %v", g2, err)
	}
	if age := time.Since(granted); age < cfg.LeaseTTL/2 {
		t.Fatalf("hedged after %v, before the lease was %v old", age, cfg.LeaseTTL/2)
	}
	rec := testRecord(9)
	if accepted, _ := d.Complete(w2, g2.LeaseID, "job-d", &rec, ""); !accepted {
		t.Fatal("hedge completion not accepted")
	}
	if got := <-res; got.err != nil || got.rec.TimeNS != 9 {
		t.Fatalf("Do returned (%+v, %v)", got.rec, got.err)
	}
	// The straggler's eventual completion is a duplicate.
	if accepted, _ := d.Complete(w1, g1.LeaseID, "job-d", &rec, ""); accepted {
		t.Fatal("straggler completion should be suppressed")
	}
	st := d.Stats()
	if st.Hedged != 1 || st.DuplicateCompletions != 1 {
		t.Fatalf("stats: hedged=%d dup=%d, want 1/1", st.Hedged, st.DuplicateCompletions)
	}
}

// TestNoWorkersAndDrainErrors pins the fallback contract: Do without a
// fleet says ErrNoWorkers, Do on a draining coordinator says
// ErrDraining, and a draining worker is not leased to.
func TestNoWorkersAndDrainErrors(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()

	if _, err := d.Do(context.Background(), JobRef{}, "h"); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Do with no workers: %v, want ErrNoWorkers", err)
	}

	w1, _, _ := d.Register("lone")
	if err := d.DrainWorker(w1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Do(context.Background(), JobRef{}, "h"); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Do with only draining workers: %v, want ErrNoWorkers", err)
	}
	if g, err := d.Lease(w1, 10*time.Millisecond); err != nil || g != nil {
		t.Fatalf("draining worker got lease %v (err %v)", g, err)
	}

	w2, _, _ := d.Register("late")
	_ = w2
	d.StartDrain()
	if _, err := d.Do(context.Background(), JobRef{}, "h"); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do while draining: %v, want ErrDraining", err)
	}
}

// TestDrainAnswersLeasePolls: a draining coordinator answers a pending
// lease poll and every later one at once with ErrDraining, and a worker
// that meets it logs the drain once, however often it polls.
func TestDrainAnswersLeasePolls(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()
	id, _, _ := d.Register("poller")
	type reply struct {
		g   *LeaseGrant
		err error
		in  time.Duration
	}
	pending := make(chan reply, 1)
	go func() {
		start := time.Now()
		g, err := d.Lease(id, 10*time.Second)
		pending <- reply{g, err, time.Since(start)}
	}()
	time.Sleep(20 * time.Millisecond) // let the poll block
	d.StartDrain()
	r := <-pending
	if r.g != nil || !errors.Is(r.err, ErrDraining) || r.in > 2*time.Second {
		t.Fatalf("pending poll at drain: %v, %v after %v; want ErrDraining at once", r.g, r.err, r.in)
	}
	start := time.Now()
	if g, err := d.Lease(id, 10*time.Second); g != nil || !errors.Is(err, ErrDraining) || time.Since(start) > time.Second {
		t.Fatalf("poll after drain: %v, %v after %v; want ErrDraining at once", g, err, time.Since(start))
	}

	// A worker against a draining coordinator's HTTP API.
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	var mu sync.Mutex
	var logs []string
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	wk := NewWorker(WorkerOptions{Coordinator: ts.URL, Name: "late", PollWait: 10 * time.Second,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
	go func() { done <- wk.Run(ctx) }()
	// Three refused polls, about a second.
	time.Sleep(2*leaseRetry + leaseRetry/2)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, l := range logs {
		if strings.Contains(l, "draining") {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d drain log lines, want 1:\n%s", n, strings.Join(logs, "\n"))
	}
}

// TestDrainFailsQueuedTasks checks StartDrain bounces unleased queued
// jobs back to their waiters with ErrDraining (the serve layer's cue to
// compute locally) while the lease table quiesces.
func TestDrainFailsQueuedTasks(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()
	d.Register("idle")

	res := doAsync(d, "job-e")
	// Wait until the task is queued, then drain before any lease.
	waitStat(t, d, "task queued", func(s Stats) bool { return s.TasksQueued == 1 })
	d.StartDrain()
	got := <-res
	if !errors.Is(got.err, ErrDraining) {
		t.Fatalf("queued task after drain: %v, want ErrDraining", got.err)
	}
	if err := d.Quiesce(context.Background()); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

// TestDeregisterRequeues checks a graceful worker exit requeues its
// outstanding leases immediately.
func TestDeregisterRequeues(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()
	w1, _, _ := d.Register("leaver")
	w2, _, _ := d.Register("stayer")

	res := doAsync(d, "job-f")
	if g, err := d.Lease(w1, time.Second); err != nil || g == nil {
		t.Fatalf("w1 lease: %v %v", g, err)
	}
	if err := d.Deregister(w1); err != nil {
		t.Fatal(err)
	}
	g2, err := d.Lease(w2, time.Second)
	if err != nil || g2 == nil || g2.Hash != "job-f" {
		t.Fatalf("lease after deregister: %v %v", g2, err)
	}
	rec := testRecord(3)
	d.Complete(w2, g2.LeaseID, "job-f", &rec, "")
	if got := <-res; got.err != nil || got.rec.TimeNS != 3 {
		t.Fatalf("Do returned (%+v, %v)", got.rec, got.err)
	}
	if st := d.Stats(); st.LeasesRevoked != 1 {
		t.Fatalf("leasesRevoked=%d, want 1", st.LeasesRevoked)
	}
}

// TestDoContextCancel checks a canceled waiter detaches without killing
// the task.
func TestDoContextCancel(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()
	d.Register("w")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Do(ctx, JobRef{}, "job-g"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with canceled ctx: %v", err)
	}
	if st := d.Stats(); st.TasksQueued != 0 || st.Abandoned != 1 {
		t.Fatalf("a task nobody waits on: queued %d, abandoned %d, want 0 and 1", st.TasksQueued, st.Abandoned)
	}
}

// TestDoAbandonsOnlyUnwatchedUnleasedTasks: a task leaves the queue when
// its last waiter leaves before any lease, and not while another Do
// still waits on it; a leased task whose waiters all left still runs to
// completion, but it is never hedged, and when its lease expires it is
// abandoned, not leased again.
func TestDoAbandonsOnlyUnwatchedUnleasedTasks(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()
	wid, _, _ := d.Register("w")

	ctx, leave := context.WithCancel(context.Background())
	left := make(chan error, 1)
	go func() { _, err := d.Do(ctx, JobRef{}, "job-a"); left <- err }()
	stay := doAsync(d, "job-a")
	waitStat(t, d, "job-a queued", func(s Stats) bool { return s.TasksQueued == 1 })
	time.Sleep(10 * time.Millisecond) // both Do calls are waiting
	leave()
	if err := <-left; !errors.Is(err, context.Canceled) {
		t.Fatalf("Do after its ctx ended: %v", err)
	}
	if st := d.Stats(); st.TasksQueued != 1 || st.Abandoned != 0 {
		t.Fatalf("one waiter left, one waits: queued %d, abandoned %d, want 1 and 0", st.TasksQueued, st.Abandoned)
	}
	g, err := d.Lease(wid, time.Second)
	if err != nil || g == nil {
		t.Fatalf("lease: %v, %v", g, err)
	}
	rec := testRecord(1)
	if ok, err := d.Complete(wid, g.LeaseID, g.Hash, &rec, ""); !ok || err != nil {
		t.Fatalf("complete: %v, %v", ok, err)
	}
	if r := <-stay; r.err != nil || r.rec.TimeNS != 1 {
		t.Fatalf("the waiter that stayed: %+v", r)
	}

	ctx, leave = context.WithCancel(context.Background())
	go func() { _, err := d.Do(ctx, JobRef{}, "job-b"); left <- err }()
	g, err = d.Lease(wid, time.Second)
	if err != nil || g == nil || g.Hash != "job-b" {
		t.Fatalf("lease: %v, %v", g, err)
	}
	leave()
	<-left
	if st := d.Stats(); st.LeasesOutstanding != 1 || st.Abandoned != 0 {
		t.Fatalf("a leased task's waiter left: leases %d, abandoned %d, want 1 and 0", st.LeasesOutstanding, st.Abandoned)
	}
	if ok, err := d.Complete(wid, g.LeaseID, g.Hash, &rec, ""); !ok || err != nil {
		t.Fatalf("a leased task with no waiter left completes: %v, %v", ok, err)
	}

	ctx, leave = context.WithCancel(context.Background())
	go func() { _, err := d.Do(ctx, JobRef{}, "job-c"); left <- err }()
	g, err = d.Lease(wid, time.Second)
	if err != nil || g == nil || g.Hash != "job-c" {
		t.Fatalf("lease: %v, %v", g, err)
	}
	leave()
	<-left
	// A second worker polls past the hedge age (75ms) and the lease's
	// expiry (150ms): the task has no waiter, so neither grants it.
	other, _, _ := d.Register("other")
	if g2, err := d.Lease(other, 400*time.Millisecond); g2 != nil || err != nil {
		t.Fatalf("a task with no waiter was leased again: %+v, %v", g2, err)
	}
	waitStat(t, d, "job-c abandoned", func(s Stats) bool { return s.Abandoned == 1 })
	if g2, err := d.Lease(other, 50*time.Millisecond); g2 != nil || err != nil {
		t.Fatalf("an abandoned task was leased again: %+v, %v", g2, err)
	}
	st := d.Stats()
	if st.LeasesExpired != 1 || st.TasksQueued != 0 || st.Abandoned != 1 || st.Hedged != 0 || st.Reassigned != 0 {
		t.Fatalf("expired lease of a task with no waiter: expired %d, queued %d, abandoned %d, hedged %d, reassigned %d; want 1, 0, 1, 0, 0",
			st.LeasesExpired, st.TasksQueued, st.Abandoned, st.Hedged, st.Reassigned)
	}
}

// TestJobRefResolve checks the wire ref round-trips through the local
// registries and that a wrong hash is refused, not run.
func TestJobRefResolve(t *testing.T) {
	ref := JobRef{Apps: []string{"sor-nonzero"}, Backends: []string{"tmk"}, NProcs: []int{2}, Scale: 0.01, Index: 0}

	sel := harness.Selection{Apps: ref.Apps, Backends: ref.Backends, NProcs: ref.NProcs}
	grid, err := sel.Resolve(ref.Scale)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := grid.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := harness.SpecHash(jobs[0])

	job, err := ref.Resolve(want)
	if err != nil {
		t.Fatalf("resolve with matching hash: %v", err)
	}
	if h := harness.SpecHash(job); h != want {
		t.Fatalf("resolved job hashes to %s, want %s", h, want)
	}

	if _, err := ref.Resolve("0000beef"); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("resolve with wrong hash: %v, want mismatch refusal", err)
	}
	bad := ref
	bad.Index = 99
	if _, err := bad.Resolve(want); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("resolve with bad index: %v, want range refusal", err)
	}
}

// TestWorkerResolvesSelectionOnce: a worker's leases that name one
// selection share one enumeration, each still checked against its
// grant's hash and run on its own clone of the app; a lease naming
// another selection or scale resolves afresh.
func TestWorkerResolvesSelectionOnce(t *testing.T) {
	ref := JobRef{Apps: []string{"ep", "sor-nonzero"}, Backends: []string{"tmk", "pvm"}, NProcs: []int{2}, Scale: 0.01}
	jobs, err := ref.jobs()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerOptions{})
	grant := func(ref JobRef, i int, hash string) *LeaseGrant {
		ref.Index = i
		return &LeaseGrant{Job: ref, Hash: hash}
	}
	var enumerated *harness.Job
	for i := range jobs {
		job, err := w.resolve(grant(ref, i, harness.SpecHash(jobs[i])))
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if i == 0 {
			enumerated = &w.selJobs[0]
		} else if &w.selJobs[0] != enumerated {
			t.Fatalf("lease %d resolved the selection again", i)
		}
		if job.App == w.selJobs[i].App || harness.SpecHash(job) != harness.SpecHash(jobs[i]) {
			t.Fatalf("lease %d: not a clone of job %d", i, i)
		}
	}
	if _, err := w.resolve(grant(ref, 1, "0000beef")); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("cached selection, wrong hash: %v, want mismatch refusal", err)
	}
	other := ref
	other.Scale = 0.02
	otherJobs, err := other.jobs()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.resolve(grant(other, 0, harness.SpecHash(otherJobs[0]))); err != nil || &w.selJobs[0] == enumerated {
		t.Fatalf("another scale: err %v, re-resolved %v", err, &w.selJobs[0] != enumerated)
	}
}

// TestFaultConfigDeterminism pins the fault harness: exact ordinal
// triggers and their precedence.
func TestFaultConfigDeterminism(t *testing.T) {
	f := FaultConfig{CrashOnJob: 3, StallOnJob: 3, RejectOnJob: 5}
	if f.action(3) != faultCrash {
		t.Fatal("crash should take precedence over stall on the same ordinal")
	}
	if f.action(5) != faultReject {
		t.Fatal("reject ordinal should fire")
	}
	if f.action(1) != faultNone || f.action(4) != faultNone {
		t.Fatal("untargeted ordinals should be clean")
	}
}

// TestLastWorkerExitFailsQueuedTasks pins the fleet-departure path: a
// job queued behind a fleet whose last worker leaves (gracefully or by
// liveness loss) must bounce back with ErrNoWorkers, not strand its
// waiter.
func TestLastWorkerExitFailsQueuedTasks(t *testing.T) {
	d := New(quietCfg())
	defer d.Close()
	w1, _, _ := d.Register("only")

	res := doAsync(d, "job-h")
	waitStat(t, d, "task queued", func(s Stats) bool { return s.TasksQueued == 1 })
	if err := d.Deregister(w1); err != nil {
		t.Fatal(err)
	}
	got := <-res
	if !errors.Is(got.err, ErrNoWorkers) {
		t.Fatalf("queued task after last worker left: %v, want ErrNoWorkers", got.err)
	}

	// Same via DrainWorker: a draining-only fleet takes no new leases,
	// so queued work must bounce too.
	w2, _, _ := d.Register("draining")
	res = doAsync(d, "job-i")
	waitStat(t, d, "second task queued", func(s Stats) bool { return s.TasksQueued == 1 })
	if err := d.DrainWorker(w2); err != nil {
		t.Fatal(err)
	}
	got = <-res
	if !errors.Is(got.err, ErrNoWorkers) {
		t.Fatalf("queued task after last worker drained: %v, want ErrNoWorkers", got.err)
	}
}
