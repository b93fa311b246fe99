package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/harness"
)

// Wire bodies of the /v1/dispatch endpoints.  All endpoints are POST
// with JSON bodies; an unknown worker id answers 410 Gone so the
// worker knows to re-register (its registration died with a previous
// coordinator incarnation or the liveness reaper).

type registerRequest struct {
	Name string `json:"name"`
}

type registerReply struct {
	WorkerID        string `json:"worker_id"`
	LeaseTTLMillis  int64  `json:"lease_ttl_ms"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
}

type leaseRequest struct {
	WorkerID   string `json:"worker_id"`
	WaitMillis int64  `json:"wait_ms"`
}

type completeRequest struct {
	WorkerID string          `json:"worker_id"`
	LeaseID  string          `json:"lease_id"`
	Hash     string          `json:"hash"`
	Record   *harness.Record `json:"record,omitempty"`
	Error    string          `json:"error,omitempty"`
}

type completeReply struct {
	Accepted bool `json:"accepted"`
}

type workerIDRequest struct {
	WorkerID string `json:"worker_id"`
}

// maxLeaseWait caps a single long-poll so a dead client cannot pin a
// handler goroutine indefinitely.
const maxLeaseWait = 30 * time.Second

// Handler returns the coordinator's worker-facing route mux, serving
// under /v1/dispatch/.  The serve API mounts it next to /v1/grid.
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/dispatch/register", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if !decodeBody(w, r, &req) {
			return
		}
		id, ttl, hb := d.Register(req.Name)
		writeJSON(w, registerReply{
			WorkerID:        id,
			LeaseTTLMillis:  ttl.Milliseconds(),
			HeartbeatMillis: hb.Milliseconds(),
		})
	})
	mux.HandleFunc("/v1/dispatch/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		wait := time.Duration(req.WaitMillis) * time.Millisecond
		if wait <= 0 || wait > maxLeaseWait {
			wait = maxLeaseWait
		}
		g, err := d.Lease(req.WorkerID, wait)
		if err != nil {
			writeDispatchError(w, err)
			return
		}
		if g == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, g)
	})
	mux.HandleFunc("/v1/dispatch/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decodeBody(w, r, &req) {
			return
		}
		accepted, err := d.Complete(req.WorkerID, req.LeaseID, req.Hash, req.Record, req.Error)
		if err != nil {
			writeDispatchError(w, err)
			return
		}
		writeJSON(w, completeReply{Accepted: accepted})
	})
	mux.HandleFunc("/v1/dispatch/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req workerIDRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := d.Heartbeat(req.WorkerID); err != nil {
			writeDispatchError(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("/v1/dispatch/drain", func(w http.ResponseWriter, r *http.Request) {
		var req workerIDRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := d.DrainWorker(req.WorkerID); err != nil {
			writeDispatchError(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("/v1/dispatch/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req workerIDRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := d.Deregister(req.WorkerID); err != nil {
			writeDispatchError(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(dst); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, "bad request body: "+err.Error()), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeDispatchError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownWorker):
		status = http.StatusGone
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{err.Error()})
}
