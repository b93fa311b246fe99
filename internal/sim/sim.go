// Package sim implements a deterministic discrete-event simulator for a
// cluster of workstations.
//
// Each simulated processor ("proc") runs real Go code, but the engine
// enforces strictly sequential execution: exactly one proc runs at a
// time, and the engine always resumes the resumable proc with the
// smallest effective virtual time (ties broken by proc id).  Procs
// advance their virtual clocks explicitly via Compute and block on
// conditions via WaitOn.  Because all cross-proc interaction happens
// through conditions evaluated at scheduling points, runs are bit-for-bit
// reproducible: message counts, byte counts and virtual times are exact.
//
// # Scheduling architecture
//
// The scheduler is event-indexed rather than scan-based.  Every resumable
// proc sits in a binary min-heap keyed by (effective resume time, proc id):
// ready procs at their own clock, and blocked procs whose condition is
// currently satisfiable at the condition's wake time.  Blocked procs whose
// condition is not yet satisfiable are parked against the Source they wait
// on (e.g. a network endpoint's inbox); mutating the state a condition
// examines must call Source.Notify, which re-polls only the parked and
// armed waiters of that source.  Pure time-based waits (Yield) go straight
// into the heap.  No condition is ever re-polled at every step, so a
// scheduling decision costs the same however many procs are blocked.
//
// Every proc body runs inside a coroutine (iter.Pull) and Run's goroutine
// is the driver.  A blocking proc makes the scheduling decision inline in
// its own stack frame: if it is itself still the minimum it just
// continues — zero switches — and otherwise it records the chosen
// successor and suspends, after which the driver resumes the successor's
// coroutine directly.  A scheduling hop therefore costs two user-space
// coroutine switches and no channel operations, never waking the Go
// runtime scheduler.
//
// On top of the heap sits a same-instant run queue: when the popped heap
// minimum leaves further procs runnable at the same virtual time, the
// scheduler drains them — in id order, exactly the serial order — into a
// local run list and feeds subsequent steps from the list head, falling
// back to the heap only when virtual time must advance or a smaller-id
// proc arms at the same instant (each pop compares the list head against
// the heap minimum, so late arrivals keep their serial position).  Only
// procs whose wake-up cannot be withdrawn are drained: pure time waits
// (cond == nil) and conditions registered on a Source marked Stable.  The
// run queue makes a k-waiter wakeup storm k back-to-back steps instead of
// k heap pops.
//
// # Determinism invariant
//
// The engine always resumes the proc with the smallest effective time
// max(clock, wake), breaking ties by smallest proc id.  This is the
// invariant every optimization must preserve: given the same spawned
// bodies, two runs execute the identical sequence of (proc, time) steps,
// so modeled times, message counts and byte counts never drift.  For the
// event-indexed fast path this requires the Notify discipline: a blocked
// proc's condition outcome may only change when its Source is notified,
// and an armed proc's wake time may only move earlier, never later.
//
// # Stable sources and early commit
//
// A Source may be marked Stable, which asserts a one-way contract for
// every condition registered against it: once the condition reports ok
// with wake time w, every later evaluation — up to the moment the waiter
// resumes at its scheduled turn — still reports ok with a wake time
// w' <= w, and w' never drops below the virtual time at which the engine
// committed the wake-up.  Single-consumer queues satisfy this contract:
// only the blocked owner can consume the state that satisfied the
// condition, and other procs' mutations only add wake-ups (the vnet
// endpoint inbox is the canonical case).
//
// The run queue relies on this contract when it commits a same-instant
// stable wake-up ahead of the proc's turn (above).  When the entry is
// popped — the proc's serial turn, before it performs any observable
// effect — the engine re-verifies the condition, and Run fails with
// "stable condition withdrawn" if the condition no longer holds or its
// wake time moved past the committed key.  A source wrongly marked Stable
// therefore fails loudly instead of silently reordering steps.
//
// The engine distinguishes primary procs (application processes) from
// daemon procs (protocol service threads).  A run completes when every
// primary proc has returned; daemons may still be blocked at that point.
// If no proc can make progress while primaries remain, Run reports a
// deadlock with a per-proc state dump.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// Time is virtual time in nanoseconds.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time in seconds with microsecond resolution.
func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// SplitMix64 is the finalizing mixer of the splitmix64 generator: a
// bijective avalanche over 64 bits, used as a stateless hash.  Every
// seeded draw in the model goes through it — the apps' inputs, indexed by
// element, and vnet's fault decisions, indexed by message — so a draw
// depends on its key alone, never on how many draws came before or in
// what order procs ran, and the package's determinism invariant holds for
// random inputs too.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateQueued // committed to the serial run queue, not yet resumed
	stateBlocked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateQueued:
		return "queued"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "?"
}

// Cond is a blocking condition.  It must be a pure function of simulator
// state: it reports whether the proc may resume and, if so, the earliest
// virtual time at which the wake-up event (e.g. a message arrival) occurs.
// The proc's clock is advanced to max(clock, wake time) when it resumes.
type Cond func() (wake Time, ok bool)

// Source is a wake-up source: a piece of simulator state (an endpoint's
// inbox, a lock's queue) that blocked procs wait on via WaitOn.  Code that
// mutates state a registered condition examines must call Notify, which
// re-polls exactly the procs waiting on this source.  The zero value is
// ready to use.
type Source struct {
	waiters []*proc

	// Stable asserts the one-way condition contract described in the
	// package comment ("Stable sources and early commit"): once a
	// condition registered on this source reports ok with wake time w,
	// later evaluations keep reporting ok with wake times <= w until the
	// waiter resumes.  Single-consumer state (only the blocked owner can
	// consume what satisfied the condition) is the canonical qualifying
	// shape.  The run queue commits stable same-instant wake-ups early,
	// re-verifying the condition at the proc's serial turn and failing
	// the run if the contract was broken.
	Stable bool
}

func (s *Source) add(p *proc) {
	p.widx = len(s.waiters)
	s.waiters = append(s.waiters, p)
}

func (s *Source) remove(p *proc) {
	i := p.widx
	last := len(s.waiters) - 1
	s.waiters[i] = s.waiters[last]
	s.waiters[i].widx = i
	s.waiters[last] = nil
	s.waiters = s.waiters[:last]
	p.widx = -1
}

// Notify re-polls the condition of every proc waiting on s, arming in the
// scheduler's wake-time heap those that became (or remain) resumable.
// Call it after any mutation that could satisfy a waiter's condition or
// move its wake time earlier.
func (s *Source) Notify() {
	for _, p := range s.waiters {
		p.eng.repoll(p)
	}
}

// HasWaiter reports whether a proc is currently blocked on s.  Callers
// that reuse per-source condition state (e.g. a single-consumer inbox)
// can use it to turn concurrent-waiter misuse into an immediate error.
func (s *Source) HasWaiter() bool { return len(s.waiters) > 0 }

type proc struct {
	id     int
	name   string
	daemon bool
	state  procState
	clock  Time
	cond   Cond          // valid when state == stateBlocked (nil: pure time wait)
	what   string        // human-readable reason for the block
	whatFn func() string // lazy variant of what (takes precedence in dumps)
	src    *Source       // source the proc is parked on, if any
	stable bool          // parked on a Stable source (early commit allowed)
	key    Time          // effective resume time while armed in the heap
	hidx   int           // heap index; -1 when not armed
	widx   int           // index in src.waiters; -1 when absent

	// The proc body runs inside an iter.Pull coroutine.  next resumes it,
	// yield suspends it (false: engine shut down), stop unwinds it.  All
	// three are driven from Run's goroutine only.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	body func(*Ctx)
	eng  *Engine
	err  error // panic captured from the proc body
}

// Engine coordinates a set of procs over virtual time.
type Engine struct {
	procs    []*proc
	heap     []*proc // min-heap by (key, id): armed/ready procs
	primLeft int     // primary procs that have not yet returned
	runErr   error   // first proc failure or deadlock
	started  bool

	// Same-instant run queue and driver handoff.  runq holds procs
	// committed to run back-to-back at the current instant (id order);
	// handP/handT carry the successor chosen by a yielding proc to the
	// driver (handP == nil reports a deadlock).
	runq     []*proc
	runqHead int
	handP    *proc
	handT    Time
}

// NewEngine returns an empty engine.  All procs must be spawned before
// Run.
func NewEngine() *Engine { return &Engine{} }

// Spawn registers a new proc.  Primary procs (daemon=false) must all return
// for Run to complete; daemon procs service requests and may be abandoned
// while blocked.  Spawn must not be called after Run has started.
func (e *Engine) Spawn(name string, daemon bool, body func(*Ctx)) {
	if e.started {
		panic("sim: Spawn after Run")
	}
	e.procs = append(e.procs, &proc{
		id:     len(e.procs),
		name:   name,
		daemon: daemon,
		state:  stateNew,
		hidx:   -1,
		widx:   -1,
		body:   body,
		eng:    e,
	})
}

// ---------------------------------------------------------------------
// Coroutine driver.
//
// Run's goroutine drives every proc coroutine.  The yielding proc makes
// the scheduling decision inline (waitOn), so the driver's loop only
// transfers control: set the successor's clock, resume its coroutine,
// repeat.  Proc exit and deadlock detection happen here because the
// departing coroutine cannot resume anyone itself.

// Run executes the simulation until every primary proc has returned.
// It returns a deadlock error if primaries remain but no proc can resume,
// and propagates the first panic raised inside any proc body.
func (e *Engine) Run() error {
	if e.started {
		return fmt.Errorf("sim: engine already ran")
	}
	e.started = true
	for _, p := range e.procs {
		p.state = stateReady
		e.arm(p, p.clock)
		if !p.daemon {
			e.primLeft++
		}
		p.start()
	}
	if e.primLeft > 0 {
		e.drive()
	}
	e.stopAll()
	return e.runErr
}

// drive is the driver loop: transfer control to the chosen
// proc's coroutine, read back the successor it picked, repeat.  A panic
// propagating out of a coroutine (a real body panic, or a stable-contract
// violation raised at a scheduling point) is recovered once here — not
// per step — recorded against the proc being driven, and ends the run.
func (e *Engine) drive() {
	var cur *proc
	defer func() {
		if r := recover(); r != nil {
			cur.err = fmt.Errorf("sim: proc %q panicked: %v", cur.name, r)
			cur.state = stateDone
			if e.runErr == nil {
				e.runErr = cur.err
			}
		}
	}()
	next, t := e.schedule()
	for next != nil {
		cur = next
		cur.clock = t
		_, ok := cur.next()
		if ok {
			// cur suspended at a block; it already chose the successor.
			next, t = e.handP, e.handT
			if next == nil {
				e.runErr = fmt.Errorf("sim: deadlock\n%s", e.dump())
				return
			}
			continue
		}
		// cur's body returned.
		cur.state = stateDone
		if !cur.daemon {
			e.primLeft--
			if e.primLeft == 0 {
				return
			}
		}
		next, t = e.schedule()
		if next == nil {
			e.runErr = fmt.Errorf("sim: deadlock\n%s", e.dump())
			return
		}
	}
}

// start wraps p's body in a coroutine.  The wrapper swallows the
// abandoned{} unwind signal (engine shutdown) and lets real panics
// propagate out of next into drive's recover.
func (p *proc) start() {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && !IsAbandoned(r) {
				panic(r)
			}
		}()
		p.body(&Ctx{p: p})
	})
}

// stopAll unwinds every live coroutine once the run is over.  Suspended
// procs observe yield() == false and panic(abandoned{}), which their
// wrapper swallows; never-started bodies simply never run.  Panics thrown
// by user defers during the unwind are discarded — the run's outcome is
// already decided.
func (e *Engine) stopAll() {
	for _, p := range e.procs {
		if p.state == stateDone || p.stop == nil {
			continue
		}
		p.state = stateDone
		func() {
			defer func() { recover() }()
			p.stop()
		}()
	}
}

// ---------------------------------------------------------------------
// Wake-time heap: a binary min-heap over (key, id), hand-rolled so the
// hot path pays no interface indirection.  p.hidx tracks each armed
// proc's position for decrease-key and removal.

func (e *Engine) heapLess(a, b *proc) bool {
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

func (e *Engine) heapSwap(i, j int) {
	h := e.heap
	h[i], h[j] = h[j], h[i]
	h[i].hidx = i
	h[j].hidx = j
}

func (e *Engine) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heapLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heapSwap(i, parent)
		i = parent
	}
}

func (e *Engine) heapDown(i int) {
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && e.heapLess(e.heap[r], e.heap[l]) {
			least = r
		}
		if !e.heapLess(e.heap[least], e.heap[i]) {
			return
		}
		e.heapSwap(i, least)
		i = least
	}
}

func (e *Engine) heapPush(p *proc) {
	p.hidx = len(e.heap)
	e.heap = append(e.heap, p)
	e.heapUp(p.hidx)
}

func (e *Engine) heapRemove(p *proc) {
	i := p.hidx
	last := len(e.heap) - 1
	if i != last {
		e.heapSwap(i, last)
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	p.hidx = -1
	if i < last {
		e.heapDown(i)
		e.heapUp(i)
	}
}

// arm places p in the heap at the given effective resume time, or moves
// it if already armed at a different time.
func (e *Engine) arm(p *proc, key Time) {
	if p.hidx >= 0 {
		if key != p.key {
			p.key = key
			e.heapDown(p.hidx)
			e.heapUp(p.hidx)
		}
		return
	}
	p.key = key
	e.heapPush(p)
}

// repoll re-evaluates a blocked proc's condition, arming or disarming it.
func (e *Engine) repoll(p *proc) {
	wake, ok := p.cond()
	if !ok {
		if p.hidx >= 0 {
			e.heapRemove(p)
		}
		return
	}
	key := p.clock
	if wake > key {
		key = wake
	}
	e.arm(p, key)
}

// schedule picks the next proc to run in serial order: the head of the
// same-instant run queue, unless the heap minimum precedes it (a proc may
// arm at the current instant with a smaller id after the queue was
// drained).  Popping the heap when further procs are runnable at the same
// instant drains them into the run queue — id order, the serial order —
// so a k-waiter wakeup costs one heap pop plus k-1 queue pops.  The
// chosen proc is detached from every wait structure and marked running.
// Returns (nil, 0) when nothing can make progress.
func (e *Engine) schedule() (*proc, Time) {
	if e.runqHead < len(e.runq) {
		q := e.runq[e.runqHead]
		if len(e.heap) == 0 || !e.heapLess(e.heap[0], q) {
			e.runq[e.runqHead] = nil
			e.runqHead++
			if e.runqHead == len(e.runq) {
				e.runq = e.runq[:0]
				e.runqHead = 0
			}
			if q.cond != nil {
				// Early-committed stable wake-up: re-verify at the turn,
				// before the proc resumes (see Stable sources).
				if wake, ok := q.cond(); !ok || wake > q.key {
					panic(fmt.Sprintf("sim: stable condition withdrawn on %q (ok=%v wake=%v key=%v)",
						q.name, ok, wake, q.key))
				}
			}
			q.cond, q.what, q.whatFn = nil, "", nil
			q.stable = false
			q.state = stateRunning
			return q, q.key
		}
	}
	if len(e.heap) == 0 {
		return nil, 0
	}
	p := e.heap[0]
	e.heapRemove(p)
	if p.src != nil {
		p.src.remove(p)
		p.src = nil
	}
	p.cond = nil
	p.what = ""
	p.whatFn = nil
	p.stable = false
	p.state = stateRunning
	// Same-instant batch drain: commit the runnable procs behind p at the
	// same virtual time to the run queue.  Only when the queue is empty —
	// appending behind older entries could break id order — and only
	// procs whose wake-up cannot be withdrawn (no condition, or stable).
	if e.runqHead == len(e.runq) && len(e.heap) > 0 && e.heap[0].key == p.key {
		for len(e.heap) > 0 {
			q := e.heap[0]
			if q.key != p.key || (q.cond != nil && !q.stable) {
				break
			}
			e.heapRemove(q)
			if q.src != nil {
				q.src.remove(q)
				q.src = nil
			}
			q.state = stateQueued
			e.runq = append(e.runq, q)
		}
	}
	return p, p.key
}

// dump renders a state table for deadlock diagnostics.
func (e *Engine) dump() string {
	var b strings.Builder
	ps := append([]*proc(nil), e.procs...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	for _, p := range ps {
		kind := "proc"
		if p.daemon {
			kind = "daemon"
		}
		fmt.Fprintf(&b, "  %-6s %-20s state=%-8s clock=%v", kind, p.name, p.state, p.clock)
		what := p.what
		if p.whatFn != nil {
			what = p.whatFn()
		}
		if what != "" {
			fmt.Fprintf(&b, " waiting-for=%s", what)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MaxPrimaryClock reports the largest final clock among primary procs:
// the modeled parallel execution time of the run.
func (e *Engine) MaxPrimaryClock() Time {
	var max Time
	for _, p := range e.procs {
		if !p.daemon && p.clock > max {
			max = p.clock
		}
	}
	return max
}

// Ctx is the handle a proc body uses to interact with virtual time.
type Ctx struct {
	p *proc
}

// Now returns the proc's current virtual clock.
func (c *Ctx) Now() Time { return c.p.clock }

// Compute advances the proc's virtual clock by d, modeling local
// computation.  Negative durations are ignored.
func (c *Ctx) Compute(d Time) {
	if d > 0 {
		c.p.clock += d
	}
}

// WaitOn blocks the proc on src until cond reports ok.  The proc's clock
// becomes max(clock, wake); what describes the blockage for deadlock
// dumps.  The condition is evaluated when the proc blocks and re-evaluated
// only when src.Notify is called, so the caller must guarantee that any
// state change that could satisfy cond (or move its wake time earlier)
// notifies src.  src must not be nil.
func (c *Ctx) WaitOn(src *Source, what string, cond Cond) {
	c.waitOn(src, what, nil, cond)
}

// WaitOnLazy is WaitOn with a deferred description: whatFn is only
// invoked if the block ends up in a deadlock dump, keeping message
// formatting off the scheduling fast path.
func (c *Ctx) WaitOnLazy(src *Source, whatFn func() string, cond Cond) {
	c.waitOn(src, "", whatFn, cond)
}

func (c *Ctx) waitOn(src *Source, what string, whatFn func() string, cond Cond) {
	p := c.p
	e := p.eng
	p.state = stateBlocked
	p.cond = cond
	p.what = what
	p.whatFn = whatFn
	if cond == nil {
		// Pure time-based wait: wake at the proc's own clock.
		e.arm(p, p.clock)
	} else {
		p.src = src
		p.stable = src.Stable
		src.add(p)
		if wake, ok := cond(); ok {
			key := p.clock
			if wake > key {
				key = wake
			}
			e.arm(p, key)
		}
	}
	next, t := e.schedule()
	if next == p {
		// Fast path: this proc is still the minimum and its condition
		// holds — continue inline with zero coroutine switches.
		p.clock = t
		return
	}
	// Hand the decision to the driver and suspend this coroutine; the
	// driver resumes next (or reports the deadlock when next is nil).
	e.handP, e.handT = next, t
	if !p.yield(struct{}{}) {
		// Engine abandoned the run (e.g. another proc panicked or all
		// primaries finished while this daemon was blocked).  Unwind.
		panic(abandoned{})
	}
	// The driver set p.clock before resuming.
}

// Yield gives the engine a scheduling point without blocking: procs with
// earlier clocks run before this proc continues.
func (c *Ctx) Yield() {
	c.waitOn(nil, "yield", nil, nil)
}

// abandoned is panicked through a proc body when the engine shuts it down.
type abandoned struct{}

// IsAbandoned reports whether a recovered panic value is the engine's
// shutdown signal.  Proc bodies that install their own recover handlers
// must re-panic these.
func IsAbandoned(r any) bool {
	_, ok := r.(abandoned)
	return ok
}
