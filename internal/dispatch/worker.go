package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/harness"
)

// Sentinel results of Worker.Run under injected faults, so tests can
// assert which path a worker died on.
var (
	// ErrCrashed reports the worker stopped mid-job via
	// FaultConfig.CrashOnJob: no completion was sent and heartbeats
	// ceased, exactly like a SIGKILL.
	ErrCrashed = errors.New("dispatch: worker crashed (injected fault)")

	// ErrStalled reports the worker wedged on a lease via
	// FaultConfig.StallOnJob until its context was canceled.
	ErrStalled = errors.New("dispatch: worker stalled (injected fault)")
)

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (the msvdsm serve
	// address), e.g. "http://127.0.0.1:8177".  Required.
	Coordinator string

	// Name identifies the worker in coordinator logs.
	Name string

	// Client is the HTTP client to use (default http.DefaultClient).
	Client *http.Client

	// PollWait bounds one lease long-poll (default 2s).
	PollWait time.Duration

	// Faults injects deterministic misbehavior; see FaultConfig.
	Faults FaultConfig

	// Logf, when non-nil, receives worker lifecycle events.
	Logf func(format string, args ...any)
}

// Worker is the fleet member: it registers with the coordinator,
// long-polls for job leases, runs each job through the local registries
// (verifying the spec hash first), and reports records back.  Cancel
// the Run context to drain gracefully: the worker stops taking leases,
// finishes its in-flight job, reports it, deregisters and returns.
type Worker struct {
	opts WorkerOptions

	mu        sync.Mutex
	id        string
	heartbeat time.Duration

	jobs int // lease ordinal, drives the fault harness

	// The last selection a lease named and its enumeration: the leases
	// of one sweep resolve it once.  Only Run's goroutine touches them.
	sel     JobRef
	selJobs []harness.Job
}

// NewWorker returns an unstarted worker; call Run to join the fleet.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 2 * time.Second
	}
	return &Worker{opts: opts}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Run joins the fleet and processes leases until ctx is canceled
// (graceful drain) or an injected fault kills the worker.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}

	// Heartbeats outlive ctx slightly: they stop when Run returns, not
	// when drain starts, so an in-flight job keeps its worker live.
	hbCtx, stopHB := context.WithCancel(context.Background())
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	// Announce drain the moment it is requested — even mid-job — so
	// the coordinator stops offering this worker new work immediately.
	go func() {
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		w.post(dctx, "drain", workerIDRequest{WorkerID: w.workerID()}, nil)
	}()

	for {
		if ctx.Err() != nil {
			w.deregister()
			w.logf("dispatch: worker %s drained cleanly", w.workerID())
			return nil
		}
		grant, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				continue // drain path above
			}
			if errors.Is(err, ErrUnknownWorker) {
				w.logf("dispatch: worker registration lost; re-registering")
				if rerr := w.register(ctx); rerr != nil {
					return rerr
				}
				continue
			}
			w.logf("dispatch: lease poll failed: %v (retrying)", err)
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
			}
			continue
		}
		if grant == nil {
			continue // long-poll timed out with no work
		}

		w.jobs++
		switch w.opts.Faults.action(w.jobs) {
		case faultCrash:
			w.logf("dispatch: worker %s crashing on job %d (injected)", w.workerID(), w.jobs)
			return ErrCrashed
		case faultStall:
			w.logf("dispatch: worker %s stalling on job %d (injected)", w.workerID(), w.jobs)
			<-ctx.Done()
			return ErrStalled
		case faultReject:
			w.logf("dispatch: worker %s rejecting job %d (injected)", w.workerID(), w.jobs)
			w.complete(grant, nil, "injected reject fault")
			continue
		}

		job, err := w.resolve(grant)
		if err != nil {
			w.complete(grant, nil, err.Error())
			continue
		}
		rec, err := job.Run()
		if err != nil {
			w.complete(grant, nil, err.Error())
			continue
		}
		w.complete(grant, &rec, "")
	}
}

// resolve returns the granted job, on its own clone of its app.  A
// lease naming the selection the last one named reuses its enumeration;
// every lease still checks its job's spec hash against the grant, so a
// worker whose model differs from the coordinator's refuses each job.
func (w *Worker) resolve(grant *LeaseGrant) (harness.Job, error) {
	ref := grant.Job
	if w.selJobs == nil || !ref.sameSelection(w.sel) {
		jobs, err := ref.jobs()
		if err != nil {
			return harness.Job{}, err
		}
		w.sel, w.selJobs = ref, jobs
	}
	job, err := ref.pick(w.selJobs, grant.Hash)
	if err != nil {
		return harness.Job{}, err
	}
	job.App = job.App.Clone()
	return job, nil
}

// register joins (or re-joins) the fleet, retrying with backoff until
// ctx is canceled.
func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		var reply registerReply
		_, err := w.post(ctx, "register", registerRequest{Name: w.opts.Name}, &reply)
		if err == nil && reply.WorkerID != "" {
			w.mu.Lock()
			w.id = reply.WorkerID
			w.heartbeat = time.Duration(reply.HeartbeatMillis) * time.Millisecond
			w.mu.Unlock()
			w.logf("dispatch: registered as %s (heartbeat %v, lease ttl %v)", reply.WorkerID,
				time.Duration(reply.HeartbeatMillis)*time.Millisecond, time.Duration(reply.LeaseTTLMillis)*time.Millisecond)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.logf("dispatch: register failed: %v (retrying in %v)", err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		backoff = min(2*backoff, 5*time.Second)
	}
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	interval := w.heartbeat
	w.mu.Unlock()
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		hctx, cancel := context.WithTimeout(ctx, interval)
		var reply heartbeatReply
		_, err := w.post(hctx, "heartbeat", heartbeatRequest{WorkerID: w.workerID()}, &reply)
		cancel()
		if err != nil && ctx.Err() == nil {
			w.logf("dispatch: heartbeat failed: %v", err)
		}
	}
}

// lease long-polls the coordinator for one grant; nil means no work.
func (w *Worker) lease(ctx context.Context) (*LeaseGrant, error) {
	var grant LeaseGrant
	status, err := w.post(ctx, "lease", leaseRequest{
		WorkerID:   w.workerID(),
		WaitMillis: w.opts.PollWait.Milliseconds(),
	}, &grant)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &grant, nil
}

// complete reports a lease outcome.  It runs on a background context so
// a result computed during drain still lands, and treats delivery
// failure as survivable: the coordinator's lease expiry will reassign.
func (w *Worker) complete(grant *LeaseGrant, rec *harness.Record, workErr string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var reply completeReply
	_, err := w.post(ctx, "complete", completeRequest{
		WorkerID: w.workerID(),
		LeaseID:  grant.LeaseID,
		Hash:     grant.Hash,
		Record:   rec,
		Error:    workErr,
	}, &reply)
	if err != nil {
		w.logf("dispatch: completion for job %.12s lost: %v (lease expiry will reassign)", grant.Hash, err)
	}
}

func (w *Worker) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.post(ctx, "deregister", workerIDRequest{WorkerID: w.workerID()}, nil)
}

// post sends one JSON request to a /v1/dispatch endpoint and decodes
// the reply into out (when non-nil and the reply has a body).  Protocol
// errors surface as ErrUnknownWorker/ErrDraining so callers can react.
func (w *Worker) post(ctx context.Context, endpoint string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	url := w.opts.Coordinator + "/v1/dispatch/" + endpoint
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, ErrUnknownWorker
	case http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, ErrDraining
	case http.StatusOK, http.StatusNoContent:
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, fmt.Errorf("dispatch: decode %s reply: %w", endpoint, err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return resp.StatusCode, fmt.Errorf("dispatch: %s: status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(msg))
	}
}
