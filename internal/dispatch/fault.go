package dispatch

// FaultConfig is the deterministic worker-fault harness: it makes a
// worker misbehave on exactly reproducible jobs so every recovery path
// in the dispatcher — lease expiry, liveness revocation, error
// requeue, duplicate suppression — is exercised by tests and CI rather
// than by luck.  Jobs are numbered 1,2,... in the order this worker
// leases them; each trigger fires on that ordinal, independent of
// timing or scheduling.
type FaultConfig struct {
	// CrashOnJob kills the worker while it handles its nth leased job
	// (1-based): the run loop stops without completing and heartbeats
	// cease, as if the process were SIGKILLed.  0 disables.
	CrashOnJob int

	// StallOnJob wedges the worker on its nth leased job: the lease is
	// held, heartbeats continue, but no completion ever arrives — the
	// pure lease-expiry path, with the worker still "live".  0 disables.
	StallOnJob int

	// RejectOnJob fails the nth leased job with an injected error.
	// 0 disables.
	RejectOnJob int
}

type faultAction int

const (
	faultNone faultAction = iota
	faultCrash
	faultStall
	faultReject
)

// action decides what this worker does with its nth leased job; crash
// beats stall beats reject.
func (f FaultConfig) action(n int) faultAction {
	switch {
	case f.CrashOnJob > 0 && n == f.CrashOnJob:
		return faultCrash
	case f.StallOnJob > 0 && n == f.StallOnJob:
		return faultStall
	case f.RejectOnJob > 0 && n == f.RejectOnJob:
		return faultReject
	}
	return faultNone
}
