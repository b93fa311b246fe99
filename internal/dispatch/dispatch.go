// Package dispatch is the fault-tolerant coordinator/worker tier: it
// farms cache-miss grid jobs from the serve API across a fleet of
// worker processes over HTTP, and keeps a sweep correct — byte-identical
// to the serial local run — while workers crash, stall, reject work, or
// vanish mid-job.
//
// # Lease protocol
//
// Workers pull; the coordinator never dials a worker.  A worker
// registers (POST /v1/dispatch/register), receives a worker id plus the
// protocol intervals, and then loops: long-poll for a lease
// (/v1/dispatch/lease), run the job, report the result
// (/v1/dispatch/complete), all while a background heartbeat
// (/v1/dispatch/heartbeat) keeps it live.  Every job is leased to one
// worker at a time with a deadline (Config.LeaseTTL); a lease that
// expires, or whose worker misses the liveness window (3x
// Config.Heartbeat), is revoked and its job requeued with capped
// exponential backoff (LeaseTTL/200 doubling per failed lease up to
// LeaseTTL/2); the job's fifth failed lease fails it.  A straggling
// lease older than LeaseTTL/2 is additionally hedged: an idle worker
// gets a second lease on the same job, and whichever completion arrives
// first wins.  Hedging is kept on a measurement: a sweep with a crashed,
// a stalled and a healthy worker (LeaseTTL 1 s) finished in 507 ms with
// it and 1018 ms without it, shorter in 5 of 5 interleaved pairs on 2
// vCPUs.
//
// # Exactly-once results
//
// The job wire format (JobRef) names a job by the grid selection
// vocabulary plus the job's index in the deterministic enumeration;
// the worker re-resolves the selection against its own registries and
// refuses the lease unless harness.SpecHash of the job it enumerated
// matches the hash the lease was granted under.  Completions are keyed
// by that same hash: the first valid completion finishes the job (a
// late result from an expired lease is still accepted — the hash names
// the work, not the lease), every later one is suppressed as a
// duplicate, and the serve layer's store writes are idempotent because
// equal hashes mean byte-identical records.  Hence a sweep through a
// fleet with crashing and stalling workers yields exactly the records
// of the serial local run: no losses (expiry/liveness requeue every
// job a worker dropped), no duplicates (hash-keyed suppression), no
// reordering (records land by job index).
//
// # Degradation
//
// Dispatching never strands a request: Do returns ErrNoWorkers when no
// live worker exists (or none remain after retries), ErrDraining when
// the coordinator is shutting down, and a terminal error when a job
// fails its fifth lease — in every case the serve cold path falls back
// to computing the job locally, which is always correct, just not
// scaled out.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/harness"
)

// Dispatch errors the serve layer treats as "fall back to local
// compute" rather than request failures.
var (
	// ErrNoWorkers reports that no live, non-draining worker is
	// registered (at submission, or after every registered worker died
	// while the job was queued).
	ErrNoWorkers = errors.New("dispatch: no live workers")

	// ErrDraining reports that the coordinator is shutting down and no
	// longer accepts new jobs.
	ErrDraining = errors.New("dispatch: coordinator draining")

	// ErrUnknownWorker reports a worker id the coordinator does not
	// know — expired by the liveness reaper or from a previous
	// coordinator incarnation.  Workers re-register on it.
	ErrUnknownWorker = errors.New("dispatch: unknown worker")
)

// Config sets the dispatcher's two intervals; every other interval of
// the lease protocol derives from them.  The zero value gets
// production-shaped defaults; tests shrink both.
type Config struct {
	// LeaseTTL is how long a worker holds a job before the lease
	// expires and the job is reassigned (default 10s).  It also sets
	// the retry backoff and the hedging age.
	LeaseTTL time.Duration

	// Heartbeat is the interval workers are told to beat at
	// (default 2s).  A worker silent for three intervals is declared
	// dead; lease polls and completions count as beats.
	Heartbeat time.Duration

	// Logf, when non-nil, receives recovery-path events (expiries,
	// revocations, hedges, worker loss).
	Logf func(format string, args ...any)
}

// maxFailures is how many failed leases (expiries, revocations and
// worker errors) fail a job back to its caller, which computes it
// locally.
const maxFailures = 5

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Second
	}
	return c
}

// liveness is the silence after which a worker is declared dead and
// its leases revoked.
func (c Config) liveness() time.Duration { return 3 * c.Heartbeat }

// hedgeAfter is the age at which a job's only lease becomes eligible
// for a hedged twin on an idle worker.
func (c Config) hedgeAfter() time.Duration { return c.LeaseTTL / 2 }

// backoff is how long a job waits in the queue after its nth failed
// lease: LeaseTTL/200, doubling per failure up to LeaseTTL/2.
func (c Config) backoff(failures int) time.Duration {
	b, ceil := c.LeaseTTL/200<<(failures-1), c.LeaseTTL/2
	if b > ceil || b <= 0 {
		b = ceil
	}
	return b
}

// reapTick is the reaper's period: a quarter heartbeat or half the
// first backoff, whichever is shorter, within [2ms, 100ms].
func (c Config) reapTick() time.Duration {
	return min(max(min(c.Heartbeat/4, c.backoff(1)/2), 2*time.Millisecond), 100*time.Millisecond)
}

// JobRef names one grid job on the wire: the selection that enumerates
// the grid (the msvdsm grid vocabulary, shared with the serve API) plus
// the job's index in the deterministic enumeration.  The executing
// worker re-resolves the selection against its own registries, so only
// names travel — never config structs — and the spec hash check in
// Resolve proves both sides enumerated the identical job.
type JobRef struct {
	Apps      []string `json:"apps,omitempty"`
	Backends  []string `json:"backends,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`
	NProcs    []int    `json:"nprocs,omitempty"`
	Scale     float64  `json:"scale,omitempty"`
	Index     int      `json:"index"`
}

// Resolve materializes the referenced job from the local registries and
// verifies its content hash against the hash the lease was granted
// under.  A mismatch means the two processes disagree about the model
// (version skew) — running the job anyway could silently cache a wrong
// record, so it is refused.
func (ref JobRef) Resolve(wantHash string) (harness.Job, error) {
	jobs, err := ref.jobs()
	if err != nil {
		return harness.Job{}, err
	}
	return ref.pick(jobs, wantHash)
}

// jobs resolves the selection against fresh registries and enumerates
// its grid.
func (ref JobRef) jobs() ([]harness.Job, error) {
	scale := ref.Scale
	if scale == 0 {
		scale = 1.0
	}
	sel := harness.Selection{Apps: ref.Apps, Backends: ref.Backends, Scenarios: ref.Scenarios, NProcs: ref.NProcs}
	jobs, err := sel.Jobs(scale)
	if err != nil {
		return nil, fmt.Errorf("dispatch: resolve job ref: %w", err)
	}
	return jobs, nil
}

// pick returns the referenced job of the selection's enumeration, once
// its spec hash matches wantHash.
func (ref JobRef) pick(jobs []harness.Job, wantHash string) (harness.Job, error) {
	if ref.Index < 0 || ref.Index >= len(jobs) {
		return harness.Job{}, fmt.Errorf("dispatch: job index %d out of range (grid has %d jobs)", ref.Index, len(jobs))
	}
	job := jobs[ref.Index]
	if h := harness.SpecHash(job); h != wantHash {
		return harness.Job{}, fmt.Errorf("dispatch: spec hash mismatch for job %d (lease %.12s, local %.12s): engine version skew between coordinator and worker", ref.Index, wantHash, h)
	}
	return job, nil
}

// sameSelection reports whether ref and o name the same selection at
// the same scale, whatever their indices.
func (ref JobRef) sameSelection(o JobRef) bool {
	return slices.Equal(ref.Apps, o.Apps) && slices.Equal(ref.Backends, o.Backends) &&
		slices.Equal(ref.Scenarios, o.Scenarios) && slices.Equal(ref.NProcs, o.NProcs) && ref.Scale == o.Scale
}

// LeaseGrant is one granted lease on the wire.
type LeaseGrant struct {
	LeaseID   string `json:"lease_id"`
	Hash      string `json:"hash"`
	Job       JobRef `json:"job"`
	TTLMillis int64  `json:"ttl_ms"`
}

// task is one dispatched job: queued, leased (possibly twice, hedged),
// then done.  Tasks are keyed by spec hash.
type task struct {
	hash     string
	ref      JobRef
	failures int               // expiries + revocations + worker errors
	readyAt  time.Time         // backoff gate while queued
	leases   map[string]*lease // outstanding grants
	queued   bool              // currently in d.pending
	waiters  int               // Do calls still waiting on done

	done chan struct{}
	rec  harness.Record
	err  error
}

type lease struct {
	id       string
	worker   string
	deadline time.Time
	granted  time.Time
	t        *task
}

type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	draining bool
	leases   map[string]*lease
}

// Stats is the dispatcher counter snapshot, embedded in /v1/stats.
type Stats struct {
	WorkersLive          int   `json:"workers_live"`
	WorkersDraining      int   `json:"workers_draining"`
	WorkersRegistered    int64 `json:"workers_registered"`
	WorkersLost          int64 `json:"workers_lost"`
	TasksQueued          int   `json:"tasks_queued"`
	LeasesOutstanding    int   `json:"leases_outstanding"`
	LeasesGranted        int64 `json:"leases_granted"`
	LeasesExpired        int64 `json:"leases_expired"`
	LeasesRevoked        int64 `json:"leases_revoked"`
	Reassigned           int64 `json:"reassigned"`
	Hedged               int64 `json:"hedged"`
	Completions          int64 `json:"completions"`
	LateCompletions      int64 `json:"late_completions"`
	DuplicateCompletions int64 `json:"duplicate_completions"`
	WorkerErrors         int64 `json:"worker_errors"`
	TasksDispatched      int64 `json:"tasks_dispatched"`
	TasksFailed          int64 `json:"tasks_failed"`
	Abandoned            int64 `json:"abandoned"`
}

// Dispatcher is the coordinator side of the tier: the lease table, the
// worker registry, and the reaper that turns missed deadlines into
// reassignment.
type Dispatcher struct {
	cfg Config

	mu      sync.Mutex
	notify  chan struct{} // closed and replaced on every wake-worthy change
	workers map[string]*workerState
	tasks   map[string]*task // active, by spec hash
	pending []*task          // queued tasks in arrival order
	leases  map[string]*lease
	nextID  int64
	drain   bool
	closed  bool

	// stats holds the counters; Stats fills in the gauges derived from
	// the tables at snapshot time.
	stats Stats

	stopReaper chan struct{}
	reaperDone chan struct{}
}

// New returns a running dispatcher (its reaper goroutine started).
// Close it when done.
func New(cfg Config) *Dispatcher {
	d := &Dispatcher{
		cfg:        cfg.withDefaults(),
		notify:     make(chan struct{}),
		workers:    map[string]*workerState{},
		tasks:      map[string]*task{},
		leases:     map[string]*lease{},
		stopReaper: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	go d.reap()
	return d
}

func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// notifyLocked wakes every blocked Lease long-poll.  Caller holds d.mu.
func (d *Dispatcher) notifyLocked() {
	close(d.notify)
	d.notify = make(chan struct{})
}

// Register adds a worker and returns its id plus the protocol intervals
// it must honor.
func (d *Dispatcher) Register(name string) (id string, leaseTTL, heartbeat time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	id = fmt.Sprintf("w%d", d.nextID)
	d.workers[id] = &workerState{
		id: id, name: name, lastSeen: time.Now(),
		leases: map[string]*lease{},
	}
	d.stats.WorkersRegistered++
	d.logf("dispatch: worker %s (%s) registered", id, name)
	return id, d.cfg.LeaseTTL, d.cfg.Heartbeat
}

// Heartbeat refreshes a worker's liveness.
func (d *Dispatcher) Heartbeat(workerID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	return nil
}

// DrainWorker marks a worker as winding down: it receives no new
// leases but its in-flight completions are still accepted.
func (d *Dispatcher) DrainWorker(workerID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	if !w.draining {
		w.draining = true
		d.logf("dispatch: worker %s (%s) draining", w.id, w.name)
		if !d.hasWorkersLocked() {
			d.failQueuedLocked(ErrNoWorkers)
		}
	}
	return nil
}

// Deregister removes a worker; any leases it still holds are revoked
// and their jobs requeued.
func (d *Dispatcher) Deregister(workerID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	d.removeWorkerLocked(w, "deregistered")
	return nil
}

// removeWorkerLocked drops a worker, revoking and requeueing its
// leases.  Caller holds d.mu.
func (d *Dispatcher) removeWorkerLocked(w *workerState, why string) {
	delete(d.workers, w.id)
	if len(w.leases) > 0 {
		d.logf("dispatch: worker %s (%s) %s; revoking %d leases", w.id, w.name, why, len(w.leases))
	} else {
		d.logf("dispatch: worker %s (%s) %s", w.id, w.name, why)
	}
	for _, l := range w.leases {
		d.stats.LeasesRevoked++
		d.dropLeaseLocked(l, true)
	}
	if !d.hasWorkersLocked() {
		d.failQueuedLocked(ErrNoWorkers)
	}
	d.notifyLocked()
}

// failQueuedLocked bounces queued, unleased tasks back to their waiters
// with err — the serve layer's cue to compute locally.  It runs when no
// live worker remains (ErrNoWorkers), without which a sweep whose fleet
// departed mid-run would block on tasks nobody will ever lease, and
// when the coordinator drains (ErrDraining).  Caller holds d.mu.
func (d *Dispatcher) failQueuedLocked(err error) {
	for _, t := range append([]*task(nil), d.pending...) {
		if len(t.leases) == 0 {
			d.stats.TasksFailed++
			d.finishLocked(t, harness.Record{}, err)
		}
	}
}

// hasWorkersLocked reports a live, non-draining worker.  Caller holds
// d.mu.
func (d *Dispatcher) hasWorkersLocked() bool {
	for _, w := range d.workers {
		if !w.draining {
			return true
		}
	}
	return false
}

// HasWorkers reports whether the fleet can currently accept work; the
// serve cold path consults it before dispatching instead of computing
// locally.
func (d *Dispatcher) HasWorkers() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hasWorkersLocked()
}

// Do dispatches one job to the fleet and blocks until a worker
// completes it, the job fails terminally, or ctx is canceled.
// Concurrent Do calls for the same hash share one task.  ErrNoWorkers
// and ErrDraining mean "compute locally instead".
//
// A caller whose ctx ends stops waiting.  When it was the task's last
// waiter and no worker holds a lease on the task, the task is abandoned
// (abandonLocked): nobody would read its record, since a completion is
// handed only to its waiters.  A leased task runs to completion, but it
// is never hedged, and when its lease expires or its worker is lost it
// is abandoned instead of requeued.
func (d *Dispatcher) Do(ctx context.Context, ref JobRef, hash string) (harness.Record, error) {
	d.mu.Lock()
	if d.closed || d.drain {
		d.mu.Unlock()
		return harness.Record{}, ErrDraining
	}
	if !d.hasWorkersLocked() {
		d.mu.Unlock()
		return harness.Record{}, ErrNoWorkers
	}
	t, ok := d.tasks[hash]
	if !ok {
		t = &task{hash: hash, ref: ref, leases: map[string]*lease{}, done: make(chan struct{})}
		d.tasks[hash] = t
		d.enqueueLocked(t)
		d.stats.TasksDispatched++
	}
	t.waiters++
	d.mu.Unlock()

	select {
	case <-t.done:
		return t.rec, t.err
	case <-ctx.Done():
		d.mu.Lock()
		t.waiters--
		if t.waiters == 0 && len(t.leases) == 0 && !d.isDone(t) {
			d.abandonLocked(t)
		}
		d.mu.Unlock()
		return harness.Record{}, ctx.Err()
	}
}

// enqueueLocked puts a task (back) on the pending queue.  Caller holds
// d.mu.
func (d *Dispatcher) enqueueLocked(t *task) {
	if t.queued {
		return
	}
	t.queued = true
	d.pending = append(d.pending, t)
	d.notifyLocked()
}

// abandonLocked drops an unleased task that no Do waits on from the
// queue and the table.  Caller holds d.mu.
func (d *Dispatcher) abandonLocked(t *task) {
	d.dequeueLocked(t)
	delete(d.tasks, t.hash)
	d.stats.Abandoned++
}

// dequeueLocked removes a task from pending.  Caller holds d.mu.
func (d *Dispatcher) dequeueLocked(t *task) {
	if !t.queued {
		return
	}
	t.queued = false
	for i, q := range d.pending {
		if q == t {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			return
		}
	}
}

// Lease blocks up to wait for a job to lease to workerID and returns
// the grant, or nil when none became available.  A lease poll also
// refreshes the worker's liveness.  A draining coordinator grants no
// lease, so it answers a pending or new poll at once with ErrDraining
// instead of holding it to its deadline: its listener need not wait out
// the poll to shut down.
func (d *Dispatcher) Lease(workerID string, wait time.Duration) (*LeaseGrant, error) {
	deadline := time.Now().Add(wait)
	for {
		d.mu.Lock()
		if d.drain {
			d.mu.Unlock()
			return nil, ErrDraining
		}
		w := d.workers[workerID]
		if w == nil {
			d.mu.Unlock()
			return nil, ErrUnknownWorker
		}
		now := time.Now()
		w.lastSeen = now
		if !w.draining {
			if t := d.pickLocked(now); t != nil {
				g := d.grantLocked(w, t, now, false)
				d.mu.Unlock()
				return g, nil
			}
			if t := d.hedgeLocked(w, now); t != nil {
				g := d.grantLocked(w, t, now, true)
				d.mu.Unlock()
				return g, nil
			}
		}
		ch := d.notify
		d.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return nil, nil
		}
	}
}

// pickLocked pops the first backoff-ready pending task.  Caller holds
// d.mu.
func (d *Dispatcher) pickLocked(now time.Time) *task {
	for _, t := range d.pending {
		if !t.readyAt.After(now) {
			d.dequeueLocked(t)
			return t
		}
	}
	return nil
}

// hedgeLocked finds the oldest straggler lease eligible for hedged
// re-dispatch to this worker: a single outstanding lease, older than
// hedgeAfter, held by a different worker, on a task some Do still waits
// on.  Caller holds d.mu.
func (d *Dispatcher) hedgeLocked(w *workerState, now time.Time) *task {
	var oldest *lease
	for _, l := range d.leases {
		if l.worker == w.id || len(l.t.leases) != 1 || l.t.waiters == 0 {
			continue
		}
		if now.Sub(l.granted) < d.cfg.hedgeAfter() {
			continue
		}
		if oldest == nil || l.granted.Before(oldest.granted) {
			oldest = l
		}
	}
	if oldest == nil {
		return nil
	}
	return oldest.t
}

// grantLocked issues a lease on t to w.  Caller holds d.mu.
func (d *Dispatcher) grantLocked(w *workerState, t *task, now time.Time, hedged bool) *LeaseGrant {
	d.nextID++
	l := &lease{
		id:       fmt.Sprintf("l%d", d.nextID),
		worker:   w.id,
		deadline: now.Add(d.cfg.LeaseTTL),
		granted:  now,
		t:        t,
	}
	t.leases[l.id] = l
	d.leases[l.id] = l
	w.leases[l.id] = l
	d.stats.LeasesGranted++
	if hedged {
		d.stats.Hedged++
		d.logf("dispatch: hedging straggler job %.12s on worker %s", t.hash, w.id)
	}
	return &LeaseGrant{
		LeaseID:   l.id,
		Hash:      t.hash,
		Job:       t.ref,
		TTLMillis: d.cfg.LeaseTTL.Milliseconds(),
	}
}

// dropLeaseLocked removes a lease from every table and, when requeue is
// set and no sibling (hedge) lease still covers the task, requeues or
// terminally fails its task, or abandons it when no Do waits on it.
// Caller holds d.mu.
func (d *Dispatcher) dropLeaseLocked(l *lease, requeue bool) {
	delete(d.leases, l.id)
	if w := d.workers[l.worker]; w != nil {
		delete(w.leases, l.id)
	}
	t := l.t
	delete(t.leases, l.id)
	if !requeue || d.isDone(t) {
		return
	}
	if len(t.leases) > 0 {
		return // a hedge twin is still running the job
	}
	if t.waiters == 0 {
		d.abandonLocked(t)
		return
	}
	t.failures++
	switch {
	case t.failures >= maxFailures:
		d.stats.TasksFailed++
		d.finishLocked(t, harness.Record{},
			fmt.Errorf("dispatch: job %.12s failed %d times (last lease on %s); giving up", t.hash, t.failures, l.worker))
	case !d.hasWorkersLocked():
		d.stats.TasksFailed++
		d.finishLocked(t, harness.Record{}, ErrNoWorkers)
	default:
		t.readyAt = time.Now().Add(d.cfg.backoff(t.failures))
		d.stats.Reassigned++
		d.enqueueLocked(t)
	}
}

func (d *Dispatcher) isDone(t *task) bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// finishLocked completes a task (success or terminal failure), drops
// its remaining leases and wakes its waiters.  Caller holds d.mu.
func (d *Dispatcher) finishLocked(t *task, rec harness.Record, err error) {
	if d.isDone(t) {
		return
	}
	t.rec, t.err = rec, err
	delete(d.tasks, t.hash)
	d.dequeueLocked(t)
	for _, l := range t.leases {
		delete(d.leases, l.id)
		if w := d.workers[l.worker]; w != nil {
			delete(w.leases, l.id)
		}
		delete(t.leases, l.id)
	}
	close(t.done)
}

// Complete reports a lease outcome.  A successful record finishes the
// task on first arrival — even if the lease already expired (the hash
// names the work, not the lease) — and is suppressed as a duplicate on
// any later arrival.  A worker error requeues the job with backoff.
// accepted reports whether this completion finished the task.
func (d *Dispatcher) Complete(workerID, leaseID, hash string, rec *harness.Record, workErr string) (accepted bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w := d.workers[workerID]; w != nil {
		w.lastSeen = time.Now()
	}
	l := d.leases[leaseID]
	t := d.tasks[hash]
	if t == nil {
		// Task already finished (or never existed): a duplicate from a
		// hedge twin or an expired-lease retry.  Exactly-once holds
		// because the store upsert for an equal hash is idempotent.
		d.stats.DuplicateCompletions++
		if l != nil {
			d.dropLeaseLocked(l, false)
		}
		return false, nil
	}
	if workErr != "" {
		d.stats.WorkerErrors++
		d.logf("dispatch: worker %s failed job %.12s: %s", workerID, hash, workErr)
		if l != nil && l.t == t {
			d.dropLeaseLocked(l, true)
		}
		return false, nil
	}
	if rec == nil {
		return false, fmt.Errorf("dispatch: completion for job %.12s carries neither record nor error", hash)
	}
	d.stats.Completions++
	if l == nil {
		// The lease expired (or its worker was declared dead) before
		// the result arrived, but the result is still the right bytes
		// for this hash: accept it rather than burn another worker.
		d.stats.LateCompletions++
		d.logf("dispatch: late completion for job %.12s from worker %s accepted", hash, workerID)
	}
	d.finishLocked(t, *rec, nil)
	return true, nil
}

// StartDrain begins coordinator shutdown: no new jobs are accepted and
// no new leases granted.  Queued jobs that no lease covers fail with
// ErrDraining, bouncing their waiting requests back to local compute;
// in-flight leases may still complete.
func (d *Dispatcher) StartDrain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.drain {
		return
	}
	d.drain = true
	d.logf("dispatch: coordinator draining (%d leases in flight, %d jobs queued)", len(d.leases), len(d.pending))
	d.failQueuedLocked(ErrDraining)
	d.notifyLocked()
}

// Quiesce blocks until no leases remain outstanding or ctx expires.
func (d *Dispatcher) Quiesce(ctx context.Context) error {
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		d.mu.Lock()
		n := len(d.leases)
		d.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Close shuts the dispatcher down: drains, fails every remaining task,
// and stops the reaper.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.drain = true
	for _, t := range d.tasks {
		d.stats.TasksFailed++
		d.finishLocked(t, harness.Record{}, ErrDraining)
	}
	d.notifyLocked()
	d.mu.Unlock()
	close(d.stopReaper)
	<-d.reaperDone
}

// Stats returns a counter snapshot.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.TasksQueued, st.LeasesOutstanding = len(d.pending), len(d.leases)
	for _, w := range d.workers {
		if w.draining {
			st.WorkersDraining++
		} else {
			st.WorkersLive++
		}
	}
	return st
}

// reap is the background deadline loop: it expires leases, declares
// silent workers dead, and wakes lease polls when backoff-gated work
// becomes ready.
func (d *Dispatcher) reap() {
	defer close(d.reaperDone)
	ticker := time.NewTicker(d.cfg.reapTick())
	defer ticker.Stop()
	for {
		select {
		case <-d.stopReaper:
			return
		case <-ticker.C:
		}
		d.mu.Lock()
		now := time.Now()
		for _, l := range d.leases {
			if l.deadline.After(now) {
				continue
			}
			d.stats.LeasesExpired++
			d.logf("dispatch: lease %s (job %.12s) on worker %s expired; reassigning", l.id, l.t.hash, l.worker)
			d.dropLeaseLocked(l, true)
		}
		for _, w := range d.workers {
			if now.Sub(w.lastSeen) <= d.cfg.liveness() {
				continue
			}
			d.stats.WorkersLost++
			d.removeWorkerLocked(w, "missed liveness window")
		}
		if len(d.pending) > 0 || len(d.leases) > 0 {
			// Wake pollers: backoff gates and hedge eligibility are time
			// events no state change announces.
			d.notifyLocked()
		}
		d.mu.Unlock()
	}
}
