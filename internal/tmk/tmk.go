// Package tmk reimplements the TreadMarks software distributed shared
// memory system (paper §2.2) on the simulated cluster.
//
// TreadMarks provides a shared paged address space over physically
// distributed memories.  Consistency follows the lazy invalidate version
// of release consistency: a processor's execution is divided into
// intervals delimited by synchronization operations; intervals carry
// vector timestamps and write notices; acquiring a lock (or departing a
// barrier) delivers the write notices of all causally preceding intervals
// and invalidates the named pages; the first access to an invalidated
// page faults, fetches the missing diffs from a minimal set of previous
// writers, and applies them in happens-before order.  Concurrent writers
// to disjoint parts of a page are merged through diffs (the multiple-
// writer protocol), mitigating false sharing.
//
// Where the original uses virtual-memory protection to detect accesses,
// this implementation uses software access checks on every typed access
// (see views.go): Go's garbage-collected runtime does not tolerate
// mprotect games on its heap.  The protocol actions triggered are
// identical; only the detection mechanism differs.
//
// Synchronization: Tmk_barrier(i) == (*Proc).Barrier(i),
// Tmk_lock_acquire(i) == (*Proc).LockAcquire(i), Tmk_lock_release(i) ==
// (*Proc).LockRelease(i), Tmk_malloc == (*System).Malloc.  Locks have a
// statically assigned manager (id mod nprocs) that forwards acquire
// requests to the last requester; a release sends no message.  Barriers
// have a centralized manager (processor 0); an n-processor barrier costs
// 2*(n-1) messages.
//
// Each processor runs two simulated threads: the application thread and a
// service daemon that answers lock and diff requests, standing in for the
// SIGIO-driven request handlers of the real system.
//
// # Fault-path layout
//
// The protocol state backing the fault path is fully indexed; nothing on
// it scans or hashes:
//
//   - Diffs live per page, per writer, densely indexed by interval idx
//     (writerDiffs): fault, handleDiffReq and applyPending look a diff up
//     in O(1).  A processor's interval idxs only grow, so each store is a
//     base-offset slice.
//   - applyPending orders pending write notices by merging per-writer
//     head cursors (notices of one writer are already totally ordered);
//     readiness walks the head's timestamp once over its whole life: a
//     blocked head re-tests only the component that blocked it, and
//     resumes the walk after it once it clears.
//     Application is linear in the common single-writer case.
//   - Protocol messages travel as structured objects with modeled wire
//     sizes (vnet.SendObj).  Each message's layout is one field walk in
//     wire.go: the size charged here is its counting walk, and the same
//     walk encodes and decodes the documented wire format in tests.
//     Interval records and diffs are immutable once published and are
//     shared between processors rather than re-decoded.
//   - Per-fault scratch (missing-notice list, cover targets, request
//     objects, apply cursors) is recycled on the Proc; long-lived records
//     and diffs are carved from a per-processor memArena.
//   - Memory preloaded with Init* exists once: every processor's pages
//     alias that image read-only and a processor copies a page the first
//     time it mutates it locally (a write, or a diff applied on a fault),
//     so host memory follows what processors touch, not P x the image.
//
// # Fault model
//
// TreadMarks runs over UDP, so when the network's fault injection is
// lossy (vnet.FaultConfig.Lossy) the protocol arms an at-least-once RPC
// layer on every request/reply pair — lock acquire/grant, barrier
// arrive/depart, diff request/response:
//
//   - Every request carries a per-processor monotonic sequence number
//     (header-resident, see wire.go); replies echo it.
//   - The requester retransmits on timeout with exponential backoff,
//     derived from the network cost model: the first timeout is 4x a
//     minimal round trip (at least 4 ms), doubling up to 16x that.
//     Stale replies — duplicates whose Seq does not match the
//     outstanding request — are discarded.
//   - Servers suppress duplicate requests: the manager re-forwards a
//     retransmitted acquire to its original target, a grantor or the
//     barrier manager resends its cached reply when the retransmission
//     matches the request it last answered, and anything older is
//     dropped (the requester has provably moved on).
//
// The eager-invalidate broadcast (invMsg) has no reply and is not
// retransmitted: a lost notice is repaired at the next synchronization
// operation, whose grant or departure piggybacks every record the
// receiver's timestamp does not cover; a notice that arrives ahead of a
// lost predecessor is buffered until the gap fills (see admitRecord).
// Retransmitted traffic is charged to vnet Stats.Retrans, never the
// paper's message/byte columns, and the timeout count is surfaced as the
// Proc.Timeouts counter.  With a fault-free network none of this runs:
// sequence numbers stay zero and every receive is the plain blocking
// Recv, so results are byte-identical to the pre-fault protocol.
//
// # Large-P variants
//
// The paper's testbed stops at 8 processors; the procs=64/256 scenario
// family runs the same protocol at counts where its centralized pieces
// become the story.  Vector timestamps are stored sparsely (vc.go) so
// per-access protocol cost scales with the number of active writers a
// processor has heard from, not with P; the wire encoding stays dense,
// so modeled message sizes are unchanged (a sparse wire delta encoding
// is the documented follow-on, and a model change).  Two Config knobs
// restructure the message flow itself:
//
//   - TreeBarrier replaces the centralized barrier with a radix-k
//     combining tree: arrivals aggregate up it (merged timestamp,
//     pointwise-minimum timestamp, deduplicated record union) and
//     departures fan back down with per-subtree record filtering.  The
//     2(n-1) message floor of a barrier is inherent; the tree removes
//     the manager's O(n) serial work and, at large P, the MTU
//     fragmentation of full-union departures.
//   - TreeFanout routes the eager-invalidate broadcast through a
//     writer-rooted radix-k multicast tree, bounding any node's serial
//     send burst at k.  Relays break the one-hop uniform-latency
//     argument that made flat delivery causally ordered, so this knob
//     also arms causal admission buffering (System.causalAdmit).
//
// CentralLockMgr and SpreadBarrierMgr move the static manager
// placements (locks round-robin, barriers on processor 0 by default)
// to the extremes the `placement` scenario axis sweeps.
//
// All four are variants, not defaults: the paper's protocol is the
// centralized one, the pinned goldens certify the modeled metrics of
// exactly that protocol, and the variants exist to measure what each
// restructuring buys at processor counts the paper never reached
// (backends tmk-tree and tmk-sc-tree, scenario sets bigp and
// placement).
package tmk

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/vnet"
)

// Addr is an offset into the shared address space.
type Addr int

// Config carries the DSM cost model and layout parameters.
type Config struct {
	PageSize          int      // bytes per shared page
	FaultOverhead     sim.Time // trap + handler entry on an access fault
	TwinPerByte       sim.Time // copy cost when twinning a page
	DiffCreatePerByte sim.Time // page comparison cost at interval close
	DiffApplyPerByte  sim.Time // cost of applying received diff payload
	HandlerOverhead   sim.Time // service-side cost per handled request

	// EagerInvalidate switches the consistency protocol from the paper's
	// lazy release consistency to an eager-invalidate variant: every
	// interval close (lock release, barrier arrival) broadcasts its write
	// notices to all other processors immediately, instead of letting
	// them piggyback on the next grant or barrier departure.  Receivers
	// invalidate as soon as the notice arrives (deferred only while the
	// named page is mid-write locally, see handleInval), so reads see
	// remote updates at the earliest sequentially-consistent-like point
	// rather than at the next acquire.  This is the one-knob ablation for
	// the cost of eagerness: same applications, strictly more messages.
	EagerInvalidate bool

	// TreeBarrier selects the combining-tree barrier: arrivals aggregate
	// up a radix-k tree rooted at processor 0 (parent(i) = (i-1)/k) and
	// departures fan back down it, instead of every client exchanging
	// messages with the centralized manager.  Each upward edge carries
	// the subtree's merged timestamp, its pointwise-minimum timestamp,
	// and the deduplicated union of its write-notice batches; each
	// downward edge carries only the records some member of the target
	// subtree lacks, minus what the subtree itself announced.  The
	// barrier still costs 2(n-1) logical messages — that floor is
	// inherent, every non-root processor must sync once up and once down
	// — but large departures drop below the MTU fragmentation threshold,
	// so the wire message count falls at large P.  Zero keeps the
	// paper's centralized manager; k must be >= 2 otherwise.  This is a
	// protocol variant (tmk-tree), not a default: it legitimately
	// changes modeled message counts, which the pinned paper grid must
	// not.  Mutually exclusive with SpreadBarrierMgr, and unsupported on
	// a lossy network (the at-least-once layer covers only the
	// client/manager RPC shape).
	TreeBarrier int

	// TreeFanout routes the eager-invalidate broadcast through a
	// radix-k multicast tree rooted at the writer (position q relabels
	// to (q-writer) mod n) instead of the writer sending n-1 messages
	// itself: receivers forward the shared invMsg to their tree
	// children.  Total messages and bytes are unchanged — n-1 copies
	// still cross the wire — but the writer's serial send burst
	// collapses to k sends, so interval close stops being an O(P)
	// stall.  Zero keeps the flat loop; k must be >= 2 otherwise.
	// Only meaningful with EagerInvalidate (tmk-sc-tree).
	TreeFanout int

	// CentralLockMgr statically places every lock's manager on
	// processor 0 instead of the default spread assignment (id mod n) —
	// one half of the manager-placement scenario axis.  First acquires
	// all contact processor 0; steady-state forwarding is unchanged.
	CentralLockMgr bool

	// SpreadBarrierMgr assigns barrier id's manager to processor id mod
	// n instead of the default processor 0 — the other half of the
	// placement axis.  Distinct barrier ids then spread their arrival
	// bursts across processors.  Safe without overlap handling: a
	// client only arrives at its next barrier after receiving the
	// departure of the previous one, so two barriers managed by the
	// same processor cannot be simultaneously open.
	SpreadBarrierMgr bool
}

// DefaultConfig models a mid-1990s HP PA-RISC workstation (4 KB pages).
func DefaultConfig() Config {
	return Config{
		PageSize:          4096,
		FaultOverhead:     50 * sim.Microsecond,
		TwinPerByte:       4 * sim.Nanosecond, // ~16 µs to twin a 4 KB page
		DiffCreatePerByte: 4 * sim.Nanosecond,
		DiffApplyPerByte:  4 * sim.Nanosecond,
		HandlerOverhead:   30 * sim.Microsecond,
	}
}

// System is one TreadMarks cluster: a shared address space layout plus n
// processors.  Allocate shared memory with Malloc and optionally preload
// it with Init* before spawning processor bodies.
type System struct {
	eng     *sim.Engine
	net     *vnet.Network
	cfg     Config
	n       int
	brk     Addr
	procs   []*Proc
	started bool
	initial map[int][]byte // page -> preloaded contents

	// At-least-once RPC layer, armed only when the network can lose,
	// duplicate or reorder messages (see the package fault-model doc).
	reliable bool
	// causalAdmit buffers eager notices that arrive ahead of records
	// their timestamp covers (admitRecord).  Armed with reliable (loss
	// reorders notices) and with TreeFanout: a relayed notice crosses
	// several hops while a causally-earlier notice from a different
	// writer may still be mid-relay in its own tree, so one-hop
	// uniform-latency delivery no longer implies causal delivery.
	causalAdmit bool
	rBase, rCap sim.Time // retransmit timeout: base, doubling cap
}

// Validate reports why a system cannot be built from cfg on a network
// configured as nc, or nil.  NewSystem panics with the same message, so
// layers that take configurations from outside the program (the harness
// selection resolver) reject them before anything runs.
func (cfg Config) Validate(nc vnet.Config) error {
	switch {
	case cfg.PageSize <= 0 || cfg.PageSize%8 != 0:
		return errors.New("tmk: page size must be a positive multiple of 8")
	case cfg.TreeBarrier != 0 && cfg.TreeBarrier < 2:
		return errors.New("tmk: TreeBarrier radix must be >= 2")
	case cfg.TreeFanout != 0 && cfg.TreeFanout < 2:
		return errors.New("tmk: TreeFanout radix must be >= 2")
	case cfg.TreeBarrier != 0 && cfg.SpreadBarrierMgr:
		return errors.New("tmk: TreeBarrier and SpreadBarrierMgr are mutually exclusive")
	case cfg.TreeBarrier != 0 && nc.Faults.Lossy():
		// The at-least-once layer retransmits the client/manager RPC
		// shape; the tree's hop-by-hop aggregation has no reply per
		// edge to time out on.  Keep the variant honest instead of
		// silently unreliable.
		return errors.New("tmk: TreeBarrier requires a fault-free network")
	}
	return nil
}

// NewSystem creates a TreadMarks system with n processors on net.
func NewSystem(eng *sim.Engine, net *vnet.Network, n int, cfg Config) *System {
	if n < 1 {
		panic("tmk: need at least one processor")
	}
	nc := net.Config()
	if err := cfg.Validate(nc); err != nil {
		panic(err.Error())
	}
	s := &System{eng: eng, net: net, cfg: cfg, n: n, initial: map[int][]byte{}}
	s.reliable = nc.Faults.Lossy()
	s.causalAdmit = s.reliable || cfg.TreeFanout != 0
	if s.reliable {
		rtt := 2 * (nc.SendOverhead + nc.Latency + nc.RecvOverhead)
		s.rBase = max(4*rtt, 4*sim.Millisecond)
		s.rCap = 16 * s.rBase
	}
	for i := 0; i < n; i++ {
		p := &Proc{
			sys:       s,
			id:        i,
			ep:        net.NewEndpoint(i, true),
			srv:       net.NewEndpoint(i, true),
			vc:        NewVC(n),
			locks:     map[int]*plock{},
			recs:      make([][]*IntervalRec, n),
			lastMgrVC: NewVC(n),
			faultPg:   -1,
			raisePs:   make([]int32, 0, n),
			raiseVs:   make([]int32, 0, n),
		}
		switch {
		case cfg.TreeBarrier != 0:
			// Tree mode: aggregation state lives on every processor
			// with children, and on the root even when childless (n=1).
			if kids := s.treeKids(i); kids > 0 || i == 0 {
				p.tree = &treeBarrState{id: -1, arr: make([]*treeArrMsg, 1+kids)}
			}
		case cfg.SpreadBarrierMgr:
			p.barrier = &barrierState{id: -1} // any proc can manage some barrier id
		case i == 0:
			p.barrier = &barrierState{id: -1}
		}
		s.procs = append(s.procs, p)
	}
	return s
}

// treeKids returns how many combining-tree children processor i has
// under the configured radix: the ids k*i+1 .. k*i+k that exist.
func (s *System) treeKids(i int) int {
	k := s.cfg.TreeBarrier
	lo := k*i + 1
	if lo >= s.n {
		return 0
	}
	hi := lo + k
	if hi > s.n {
		hi = s.n
	}
	return hi - lo
}

// barrierMgr returns the managing processor of barrier id under the
// configured placement (centralized barrier protocol only).
func (s *System) barrierMgr(id int) int {
	if s.cfg.SpreadBarrierMgr {
		return id % s.n
	}
	return 0
}

// N returns the number of processors.
func (s *System) N() int { return s.n }

// Proc returns processor id's state (behavioral counters, etc.).
func (s *System) Proc(id int) *Proc { return s.procs[id] }

// PageSize returns the configured page size.
func (s *System) PageSize() int { return s.cfg.PageSize }

// Malloc allocates size bytes of shared memory (Tmk_malloc).  Allocations
// are 8-byte aligned and must happen before Spawn bodies run; the layout
// is global, so every processor sees the same addresses.
func (s *System) Malloc(size int) Addr {
	if s.started {
		panic("tmk: Malloc after start")
	}
	if size < 0 {
		panic("tmk: negative allocation")
	}
	a := s.brk
	s.brk += Addr((size + 7) &^ 7)
	return a
}

// MallocPageAligned allocates size bytes starting on a fresh page, so the
// allocation shares no page with earlier ones (used by applications that
// isolate a hot structure, e.g. a counter, from bulk data).
func (s *System) MallocPageAligned(size int) Addr {
	ps := Addr(s.cfg.PageSize)
	if rem := s.brk % ps; rem != 0 {
		s.brk += ps - rem
	}
	return s.Malloc(size)
}

// Pages returns the number of pages spanned by the current allocations.
func (s *System) Pages() int {
	return (int(s.brk) + s.cfg.PageSize - 1) / s.cfg.PageSize
}

// InitBytes preloads shared memory with initial contents, present on
// every processor at no modeled cost.  The paper's measurements exclude
// initial data distribution (e.g. SOR's first iteration, FFT's initial
// value distribution); preloading models that exclusion.  On the host the
// image is held once and shared read-only: a processor copies a page out
// of it on its first local mutation, also at no modeled cost.
func (s *System) InitBytes(a Addr, b []byte) {
	if s.started {
		panic("tmk: InitBytes after start")
	}
	ps := s.cfg.PageSize
	for i := 0; i < len(b); {
		pg := (int(a) + i) / ps
		off := (int(a) + i) % ps
		n := ps - off
		if n > len(b)-i {
			n = len(b) - i
		}
		dst := s.initial[pg]
		if dst == nil {
			dst = make([]byte, ps)
			s.initial[pg] = dst
		}
		copy(dst[off:], b[i:i+n])
		i += n
	}
}

// InitF64 preloads a float64 slice at address a.
func (s *System) InitF64(a Addr, vals []float64) {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		putF64(b[8*i:], v)
	}
	s.InitBytes(a, b)
}

// InitI32 preloads an int32 slice at address a.
func (s *System) InitI32(a Addr, vals []int32) {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		putU32(b[4*i:], uint32(v))
	}
	s.InitBytes(a, b)
}

// InitI64 preloads an int64 slice at address a.
func (s *System) InitI64(a Addr, vals []int64) {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		putU64(b[8*i:], uint64(v))
	}
	s.InitBytes(a, b)
}

// Spawn registers the application body for processor id and starts its
// service daemon.  Call once per processor, then eng.Run().
func (s *System) Spawn(id int, body func(*Proc)) {
	if id < 0 || id >= s.n {
		panic(fmt.Sprintf("tmk: spawn id %d out of range", id))
	}
	s.started = true
	p := s.procs[id]
	// The application thread and the service daemon share the processor's
	// state (page table, diff store, lock table); the engine runs one proc
	// at a time, so they never touch it concurrently.
	s.eng.Spawn(fmt.Sprintf("tmk%d", id), false, func(c *sim.Ctx) {
		p.app = c
		p.initPages()
		body(p)
	})
	s.eng.Spawn(fmt.Sprintf("tmk%d.srv", id), true, func(c *sim.Ctx) {
		p.serve(c)
	})
}

// Stats returns the wire-level traffic totals: the UDP message and data
// counts the paper reports for TreadMarks.
func (s *System) Stats() vnet.Stats { return s.net.WireStats() }

// page is one processor's copy of a shared page.
type page struct {
	data  []byte        // nil means all-zero (never written locally)
	valid bool          // false: must fetch missing diffs before access
	image bool          // data aliases System.initial: copy before mutating (ownData)
	twin  []byte        // pre-modification copy; non-nil while dirty
	wn    []diffWant    // write notices not yet applied locally
	dw    []writerDiffs // held diffs, one slot per writer; nil until first store
}

// writerDiffs holds the diffs one processor stores for one page from one
// writer, indexed densely by interval idx.  Both producers insert with
// increasing idx per (page, writer) — closeInterval files own diffs as the
// interval counter advances, and fault files fetched diffs in write-notice
// order, which applyRecords keeps contiguous per writer — so the store is
// a base-offset slice with nil holes for intervals that left no diff here.
// Lookup is O(1), replacing the former global map keyed by
// (page, proc, idx).
type writerDiffs struct {
	base int32
	ds   []*Diff
}

func (w *writerDiffs) get(idx int) *Diff {
	i := idx - int(w.base)
	if i < 0 || i >= len(w.ds) {
		return nil
	}
	return w.ds[i]
}

func (w *writerDiffs) put(idx int, d *Diff, a *memArena) {
	if len(w.ds) == 0 {
		w.base = int32(idx)
		if w.ds == nil {
			w.ds = a.newDiffSlots(8)
		}
		w.ds = append(w.ds, d)
		return
	}
	i := idx - int(w.base)
	if i < 0 {
		// The protocol's insert paths only ever grow idx per (page,
		// writer); a lower idx means that invariant broke upstream.
		panic(fmt.Sprintf("tmk: diff store insert at idx %d below base %d", idx, w.base))
	}
	for len(w.ds) <= i {
		w.ds = append(w.ds, nil)
	}
	w.ds[i] = d
}

// diffOf returns the diff this processor holds for (pg, writer proc,
// interval idx), or nil.
func (p *Proc) diffOf(pg *page, proc, idx int) *Diff {
	if pg.dw == nil {
		return nil
	}
	return pg.dw[proc].get(idx)
}

// storeDiff files d as the diff of (writer proc, interval idx) for pg.
func (p *Proc) storeDiff(pg *page, proc, idx int, d *Diff) {
	if pg.dw == nil {
		pg.dw = make([]writerDiffs, p.sys.n)
	}
	pg.dw[proc].put(idx, d, &p.arena)
}

// memArena batches the allocations behind long-lived protocol state: Diff
// headers and Runs arrays (created locally or received in diff responses),
// run payload bytes, and the IntervalRec/VC/page-list triples decoded from
// grant and barrier messages.  All of it is (almost always) permanent —
// a processor holds every diff it has created or fetched and every
// interval record it has learned — so the arena only amortizes
// allocation; it never reclaims.  Carving always moves forward through a
// freshly allocated chunk, so carved memory starts zeroed and is never
// handed out twice.
type memArena struct {
	hdrs  []Diff
	runs  []Run
	bytes []byte
	recs  []IntervalRec
	vcs   []int32
	pages []int
	slots []*Diff
}

func (a *memArena) newDiff() *Diff {
	if len(a.hdrs) == 0 {
		a.hdrs = make([]Diff, 64)
	}
	d := &a.hdrs[0]
	a.hdrs = a.hdrs[1:]
	return d
}

// newRuns returns an empty capacity-n Run slice carved from the arena.
func (a *memArena) newRuns(n int) []Run {
	if n > len(a.runs) {
		a.runs = make([]Run, max(256, n))
	}
	s := a.runs[:n:n]
	a.runs = a.runs[n:]
	return s[:0]
}

// cloneBytes copies b into arena storage.
func (a *memArena) cloneBytes(b []byte) []byte {
	if len(b) > len(a.bytes) {
		a.bytes = make([]byte, max(1<<16, len(b)))
	}
	s := a.bytes[:len(b):len(b)]
	a.bytes = a.bytes[len(b):]
	copy(s, b)
	return s
}

func (a *memArena) newRec() *IntervalRec {
	if len(a.recs) == 0 {
		a.recs = make([]IntervalRec, 128)
	}
	r := &a.recs[0]
	a.recs = a.recs[1:]
	return r
}

// cloneVC copies v into arena storage: the sparse entry slices are
// carved as 2k int32s from the shared pool.  Carvings are exact-cap,
// so a later append on the clone reallocates instead of growing into
// pool memory.  Used for the immutable timestamp snapshots published
// in interval records and for the clones that reliable mode puts into
// retransmittable messages.
func (a *memArena) cloneVC(v VC) VC {
	k := len(v.ps)
	if k == 0 {
		return VC{n: v.n}
	}
	if 2*k > len(a.vcs) {
		a.vcs = make([]int32, max(4096, 2*k))
	}
	ps := a.vcs[:k:k]
	vs := a.vcs[k : 2*k : 2*k]
	a.vcs = a.vcs[2*k:]
	copy(ps, v.ps)
	copy(vs, v.vs)
	return VC{n: v.n, ps: ps, vs: vs}
}

// newPages returns an empty capacity-n page list carved from the arena.
func (a *memArena) newPages(n int) []int {
	if n > len(a.pages) {
		a.pages = make([]int, max(4096, n))
	}
	s := a.pages[:n:n]
	a.pages = a.pages[n:]
	return s[:0]
}

// newDiffSlots returns an empty capacity-n diff-pointer slice carved from
// the arena, seeding a writerDiffs store (growth past n falls back to the
// heap).
func (a *memArena) newDiffSlots(n int) []*Diff {
	if n > len(a.slots) {
		a.slots = make([]*Diff, max(1024, n))
	}
	s := a.slots[:n:n]
	a.slots = a.slots[n:]
	return s[:0]
}

// plock is a processor's view of one lock.
type plock struct {
	owned     bool     // this proc holds the token (may re-acquire locally)
	held      bool     // app thread is inside the critical section
	awaiting  bool     // acquire request outstanding
	releaseVC VC       // vc snapshot at the last release
	releaseAt sim.Time // virtual time of the last release
	nextGrant int      // queued requester (-1: none)
	nextVC    VC       // queued requester's vc
	mgrLast   int      // manager only: last processor to request the lock

	// Reliable-mode duplicate suppression (nil maps otherwise).
	nextSeq int         // queued requester's request Seq
	served  map[int]int // grantor: requester -> Seq of the last grant sent to it
	mgrSeen map[int]int // manager: requester -> latest request Seq handled
	mgrFwd  map[int]int // manager: requester -> target its latest request went to

	// Cache of the most recent grant this processor issued, for
	// resending when the retransmitted request matches it.  A single
	// slot suffices: ownership cannot advance past a requester until
	// that requester has received its grant, so a live retransmission
	// can only ever name the cached grantee.
	lastGrantee   int
	lastGrant     *grantMsg
	lastGrantSize int
}

type barrierState struct {
	id      int
	arrived []*barrMsg

	// Redistribution scratch, reused across barriers: the merged union of
	// the arrivals' record batches and the per-arrival merge cursors.
	// Valid only inside handleBarrArrive's final-arrival step.
	union []*IntervalRec
	heads []int

	// Reliable-mode duplicate suppression, indexed by client: Seq of the
	// last arrival answered and the cached departure sent for it (resent
	// when the client retransmits that arrival).
	lastSeq  []int
	lastDep  []*barrMsg
	lastSize []int

	// Centralized-mode batch scratch feeding mergeRecordBatches.
	batches [][]*IntervalRec
}

// treeBarrState is one internal node's (or the root's) aggregation
// state for the combining-tree barrier.  Slot 0 of arr holds the
// node's own arrival (sent loopback from its application thread);
// slot s >= 1 holds the arrival of child k*id+s.  The node's union
// scratch doubles as its upward Records batch and, at redistribution
// time, as the subtree-exclusion set: records the subtree announced
// itself never ride back down to it.
type treeBarrState struct {
	id   int // barrier in progress (-1: idle)
	got  int // arrivals so far; need == len(arr)
	arr  []*treeArrMsg
	aggr VC // scratch: subtree pointwise-max timestamp

	// Merge scratch, reused across barriers (see barrierState).
	union   []*IntervalRec
	heads   []int
	batches [][]*IntervalRec
	down    []*IntervalRec // internal nodes: merged departure set
}

// Proc is one TreadMarks processor.
type Proc struct {
	sys *System
	id  int
	app *sim.Ctx
	ep  *vnet.Endpoint // application endpoint (replies arrive here)
	srv *vnet.Endpoint // service endpoint (requests arrive here)

	pages []*page
	// vc is this processor's vector timestamp.  Outside applyRecords it
	// equals the record counts: vc.Get(q) == len(recs[q]) for every q,
	// because the clock only moves when records are filed (closeInterval,
	// applyRecords) or by a departure's timestamp, whose records the same
	// departure delivers first.  Causal readiness reads the counts, so
	// applyRecords can raise vc once per batch; TestVCMatchesRecordCounts
	// pins the invariant.
	vc        VC
	recs      [][]*IntervalRec // [proc][idx], contiguous
	recProcs  []int32          // writers with records filed here, ascending
	dirty     []int            // pages twinned in the current interval
	locks     map[int]*plock
	lastMgrVC VC // barrier manager's merged vc at the last departure
	barrier   *barrierState
	tree      *treeBarrState // combining-tree aggregation (TreeBarrier mode)
	pendInv   []*IntervalRec // eager notices deferred while a page was busy
	faultPg   int            // page mid-fault (service may not invalidate it); -1 otherwise

	// Reliable-mode state: the RPC sequence counter, records that arrived
	// ahead of a lost predecessor (eager mode; see admitRecord), and the
	// diff server's per-requester duplicate-suppression cache.
	rpcSeq       int
	futureRecs   []*IntervalRec
	diffLastSeq  map[int]int
	diffLastResp map[int]*diffRespMsg
	diffLastSize map[int]int

	// Access fast path (views.go): cached [lo,hi) address windows of the
	// last page hit by a scalar read (valid, data present) and write
	// (valid and twinned), so repeat accesses skip the page-table lookup
	// and the division in loc.  rc is cleared whenever a page can become
	// invalid (applyRecords); wc additionally whenever twins are dropped
	// (closeInterval).
	rc accCache
	wc accCache

	// Allocation recycling for protocol hot paths.
	twinFree [][]byte // page-size buffers returned by closeInterval
	raisePs  []int32  // applyRecords: writers of the batch, ascending (capacity n)
	raiseVs  []int32  // applyRecords: their record counts, the VC Merge raises to

	// Fault-path scratch, reused across faults.  Everything here is valid
	// only while the owning fault runs: missBuf and cover from fault entry
	// until the last diff response is in, reqMsgs until every server has
	// read its request (guaranteed by then), the wr* group within one
	// applyPending call.  Arena carvings are the exception — they become
	// permanent protocol state.
	missBuf []diffWant
	reqMsgs []diffReqMsg // per-target request objects of the current fault
	arena   memArena
	cover   coverScratch
	wrCount []int32 // applyPending: per-writer pending count / scatter cursor
	wrPos   []int32 // applyPending: per-writer head cursor into wrIdx
	wrEnd   []int32 // applyPending: per-writer group end in wrIdx
	wrBlock []int32 // applyPending: per-writer index into its head's VC of the entry that last blocked it (-1: none)
	wrIdx   []int32 // applyPending: pending interval idxs grouped by writer
	wrList  []int32 // applyPending: writers with pending notices, ascending

	// Behavioral counters (not wire stats): useful for analysis output.
	Faults       int
	DiffRequests int
	DiffsApplied int
	DiffBytes    int64
	LockWait     sim.Time // time blocked in remote lock acquires
	BarrierWait  sim.Time // time blocked in barriers
	Timeouts     int      // RPC timeouts fired (retransmissions triggered)
}

// ID returns the processor id.
func (p *Proc) ID() int { return p.id }

// N returns the number of processors.
func (p *Proc) N() int { return p.sys.n }

// Ctx exposes the application thread's sim context.
func (p *Proc) Ctx() *sim.Ctx { return p.app }

// Compute charges local computation time to the application thread.
func (p *Proc) Compute(d sim.Time) { p.app.Compute(d) }

// Now returns the application thread's virtual clock.
func (p *Proc) Now() sim.Time { return p.app.Now() }

// PageSize returns the page size.
func (p *Proc) PageSize() int { return p.sys.cfg.PageSize }

// initPages builds the page table: one slab of page structs, preloaded
// pages aliasing the system's image until this processor first mutates
// them (ownData), so start-up costs O(pages), not O(image), per processor.
func (p *Proc) initPages() {
	slab := make([]page, p.sys.Pages())
	p.pages = make([]*page, len(slab))
	for i := range slab {
		pg := &slab[i]
		pg.valid = true
		pg.data, pg.image = p.sys.initial[i]
		p.pages[i] = pg
	}
}

func (p *Proc) lock(id int) *plock {
	lk, ok := p.locks[id]
	if !ok {
		lk = &plock{nextGrant: -1, releaseVC: NewVC(p.sys.n)}
		mgr := p.manager(id)
		if p.id == mgr {
			lk.owned = true // locks start out owned by their manager
			lk.mgrLast = mgr
		}
		if p.sys.reliable {
			lk.served = map[int]int{}
			lk.mgrSeen = map[int]int{}
			lk.mgrFwd = map[int]int{}
		}
		p.locks[id] = lk
	}
	return lk
}

// nextRPC returns a fresh nonzero RPC sequence number (reliable mode;
// zero marks an unsequenced message).
func (p *Proc) nextRPC() int {
	p.rpcSeq++
	return p.rpcSeq
}

// rpcRecv receives the reply of an at-least-once RPC.  Without the
// reliability layer it is the plain blocking Recv.  With it, the receive
// carries a deadline: on timeout the request is retransmitted (resend)
// and the deadline backs off exponentially up to the configured cap;
// replies whose sequence number (extracted by seqOf) does not match want
// are stale duplicates and are freed and ignored.
func (p *Proc) rpcRecv(ctx *sim.Ctx, from, tag, want int, resend func(), seqOf func(any) int) *vnet.Message {
	if !p.sys.reliable {
		return p.ep.Recv(ctx, from, tag)
	}
	to := p.sys.rBase
	for {
		m := p.ep.RecvDeadline(ctx, from, tag, ctx.Now()+to)
		if m == nil {
			p.Timeouts++
			resend()
			if to < p.sys.rCap {
				to *= 2
				if to > p.sys.rCap {
					to = p.sys.rCap
				}
			}
			continue
		}
		if seqOf(m.Obj) != want {
			p.ep.Free(ctx, m) // stale duplicate reply
			continue
		}
		return m
	}
}

func (p *Proc) manager(lockID int) int {
	if p.sys.cfg.CentralLockMgr {
		return 0
	}
	return lockID % p.sys.n
}

// ---------------------------------------------------------------------
// Intervals and write notices.

// closeInterval ends the current interval: every twinned page is diffed,
// the diff cached, and an interval record published (paper §2.2.2).
// No-op if nothing was written.  In eager-invalidate mode it also
// broadcasts the new record and applies any notices that were deferred
// while their pages were twinned (no page is twinned past this point).
func (p *Proc) closeInterval() {
	if len(p.dirty) == 0 {
		p.drainInvalidations()
		return
	}
	sort.Ints(p.dirty)
	idx := int(p.vc.Get(p.id))
	rec := p.arena.newRec()
	rec.Proc, rec.Idx = p.id, idx
	rec.Pages = append(p.arena.newPages(len(p.dirty)), p.dirty...)
	cfg := p.sys.cfg
	for _, pid := range p.dirty {
		pg := p.pages[pid]
		if pg.twin == nil {
			panic("tmk: dirty page without twin")
		}
		d := makeDiff(pid, pg.twin, pg.data, &p.arena)
		p.storeDiff(pg, p.id, idx, d)
		p.twinFree = append(p.twinFree, pg.twin) // recycle: diffs copy out of cur, never twin
		pg.twin = nil
		p.app.Compute(sim.Time(cfg.PageSize) * cfg.DiffCreatePerByte)
	}
	p.dirty = p.dirty[:0]
	p.wc = accCache{} // twins dropped: writes must re-twin via the slow path
	p.vc.SetMax(p.id, int32(idx+1))
	// Timestamp includes the interval itself.  The snapshot is taken
	// before draining deferred notices: a record may only claim coverage
	// of intervals whose diffs this processor has actually applied, or
	// the minimal-cover dominance argument would contact a writer for
	// diffs it never fetched.
	rec.VC = p.arena.cloneVC(p.vc)
	p.recs[p.id] = append(p.recs[p.id], rec)
	if len(p.recs[p.id]) == 1 {
		p.noteRecProc(p.id)
	}
	if p.sys.cfg.EagerInvalidate {
		p.broadcastInvalidation(rec)
		p.drainInvalidations()
	}
}

// broadcastInvalidation ships a freshly closed interval's write notices
// to every other processor's service daemon (eager-invalidate mode).
// With TreeFanout set, the writer only seeds its multicast-tree
// children; their service daemons relay onward (see serve), so the
// writer's serial send burst is O(k) instead of O(P).  Message and
// byte totals are identical either way: n-1 copies of the same notice.
func (p *Proc) broadcastInvalidation(rec *IntervalRec) {
	if p.sys.n == 1 {
		return
	}
	m := &invMsg{From: p.id, Records: []*IntervalRec{rec}}
	if p.sys.cfg.TreeFanout != 0 {
		p.sendInvalChildren(p.app, p.ep, m, 0)
		return
	}
	size := wireSize(m)
	for q := 0; q < p.sys.n; q++ {
		if q == p.id {
			continue
		}
		p.ep.SendObj(p.app, p.sys.procs[q].srv, tagInval, m, size)
	}
}

// sendInvalChildren forwards an eager notice to this node's children in
// the radix-k multicast tree rooted at the writer: position q in the
// tree is processor (writer+q) mod n, so every broadcast uses the same
// balanced shape regardless of who wrote.  The shared invMsg is
// immutable and travels by reference, each hop charged its full wire
// size.
func (p *Proc) sendInvalChildren(ctx *sim.Ctx, from *vnet.Endpoint, m *invMsg, pos int) {
	n, k := p.sys.n, p.sys.cfg.TreeFanout
	size := wireSize(m)
	for s := 1; s <= k; s++ {
		cpos := k*pos + s
		if cpos >= n {
			return
		}
		q := (m.From + cpos) % n
		from.SendObj(ctx, p.sys.procs[q].srv, tagInval, m, size)
	}
}

// handleInval runs in the service daemon on an eager invalidation.  A
// record is applied immediately unless one of its pages is busy — twinned
// (the application thread is mid-write: invalidating now would tear the
// interval) or mid-fault (the fault already chose which diffs to fetch;
// a new notice would be applied without its diff) — or earlier notices
// are already deferred (per-writer order must hold).  Deferred records
// wait for the next interval close, when no page is busy; a record that
// meanwhile arrives through a grant or departure is applied there and
// skipped as a duplicate at drain time.
func (p *Proc) handleInval(m *invMsg) {
	if len(p.pendInv) == 0 && !p.recsTouchBusy(m.Records) {
		p.applyRecords(m.Records)
		return
	}
	p.pendInv = append(p.pendInv, m.Records...)
}

// recsTouchBusy reports whether any record names a twinned or mid-fault
// page.
func (p *Proc) recsTouchBusy(recs []*IntervalRec) bool {
	for _, r := range recs {
		if p.recTouchesBusy(r) {
			return true
		}
	}
	return false
}

// drainInvalidations applies the deferred eager notices.  Callers
// guarantee no page is twinned (interval just closed, or none was open).
func (p *Proc) drainInvalidations() {
	if len(p.pendInv) == 0 {
		return
	}
	recs := p.pendInv
	p.pendInv = p.pendInv[:0]
	p.applyRecords(recs)
}

// recsByProcIdx orders interval records by (Proc, Idx).
type recsByProcIdx []*IntervalRec

func (s recsByProcIdx) Len() int      { return len(s) }
func (s recsByProcIdx) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s recsByProcIdx) Less(i, j int) bool {
	if s[i].Proc != s[j].Proc {
		return s[i].Proc < s[j].Proc
	}
	return s[i].Idx < s[j].Idx
}

// sortRecords puts a record batch in (Proc, Idx) order.  Senders build
// batches in exactly that order, so the usual outcome is the free
// already-sorted check (done with direct method calls — sort.IsSorted
// would box the slice into an interface on every call).
func sortRecords(recs []*IntervalRec) {
	s := recsByProcIdx(recs)
	for i := 1; i < len(s); i++ {
		if s.Less(i, i-1) {
			sort.Sort(s)
			return
		}
	}
}

// applyRecords merges incoming interval records: stores them, advances
// the vector clock, and invalidates pages written by other processors.
// The clock is raised once for the whole batch, to the record counts of
// the writers it names (nothing between the admissions reads it), then
// once per record drainFuture admits.  One Merge raises it exactly as one
// SetMax per admitted record did, live-shared copies included: a
// writer's records are admitted in index order, so its count is the
// value its last SetMax wrote.
func (p *Proc) applyRecords(recs []*IntervalRec) {
	// Incoming write notices may invalidate any page, including a cached
	// one; drop the access fast path until the next slow-path fill.
	p.rc = accCache{}
	p.wc = accCache{}
	// Records may arrive batched out of order across processors; apply
	// each processor's records in index order.
	sortRecords(recs)
	for _, r := range recs {
		p.admitRecord(r)
	}
	ps, vs := p.raisePs[:0], p.raiseVs[:0]
	for _, r := range recs {
		if c := len(p.recs[r.Proc]); c > 0 && (len(ps) == 0 || ps[len(ps)-1] != int32(r.Proc)) {
			ps = append(ps, int32(r.Proc))
			vs = append(vs, int32(c))
		}
	}
	p.vc.Merge(VC{n: p.vc.n, ps: ps, vs: vs})
	p.raisePs, p.raiseVs = ps, vs
	if len(p.futureRecs) > 0 {
		p.drainFuture()
	}
}

// admitRecord files one interval record; the caller raises the clock.
// Sync-time batches (grants, departures) are gap-free per writer, so a
// record ahead of its predecessors can only be an eager notice whose
// predecessor was lost;
// with causal admission armed (System.causalAdmit) it is buffered in
// futureRecs until the gap fills (the predecessor piggybacks on the
// next grant or departure, or finishes its own multicast relay), and
// without it a gap is a protocol-invariant violation.
// The same buffering enforces causal admission across writers: an eager
// notice can outrun the loss of a different writer's notice that its
// timestamp covers, and admitting it early would advance this
// processor's clock past intervals it never saw — the next interval
// this processor closes would stamp a timestamp that is not
// transitively closed, breaking minimalCover's dominance argument at
// whatever processor later receives it.
func (p *Proc) admitRecord(r *IntervalRec) {
	have := len(p.recs[r.Proc])
	if r.Idx < have {
		return // duplicate
	}
	if r.Idx > have || (p.sys.causalAdmit && !p.recCausallyReady(r)) {
		if !p.sys.causalAdmit {
			panic(fmt.Sprintf("tmk: proc %d got interval %d/%d with only %d known",
				p.id, r.Proc, r.Idx, have))
		}
		for _, f := range p.futureRecs {
			if f.Proc == r.Proc && f.Idx == r.Idx {
				return // already buffered
			}
		}
		p.futureRecs = append(p.futureRecs, r)
		return
	}
	p.recs[r.Proc] = append(p.recs[r.Proc], r)
	if len(p.recs[r.Proc]) == 1 {
		p.noteRecProc(r.Proc)
	}
	if r.Proc == p.id {
		return // own writes: page copies are already current
	}
	for _, pid := range r.Pages {
		pg := p.pages[pid]
		if pg.twin != nil {
			panic("tmk: write notice applied to a twinned page (interval not closed)")
		}
		pg.valid = false
		pg.wn = append(pg.wn, diffWant{Proc: r.Proc, Idx: r.Idx})
	}
}

// drainFuture admits buffered future records whose gaps have filled,
// iterating to a fixpoint (one admission can unblock the next).  A
// record naming a busy page — twinned, or mid-fault after the fault
// chose its diff set — stays buffered: invalidating it here would tear
// the local interval, exactly the hazard handleInval defers for.  Such
// a record retries at every applyRecords; if it never drains here, the
// same record arrives through a later grant or departure (the holder's
// timestamp does not cover it) and the buffered copy dies as a
// duplicate.
func (p *Proc) drainFuture() {
	for {
		progress := false
		kept := p.futureRecs[:0]
		for _, r := range p.futureRecs {
			have := len(p.recs[r.Proc])
			switch {
			case r.Idx < have:
				progress = true // arrived through another channel; drop
			case r.Idx > have || p.recTouchesBusy(r) || !p.recCausallyReady(r):
				kept = append(kept, r)
			default:
				p.admitRecord(r)
				p.vc.SetMax(r.Proc, int32(r.Idx+1))
				progress = true
			}
		}
		p.futureRecs = kept
		if !progress || len(p.futureRecs) == 0 {
			return
		}
	}
}

// recCausallyReady reports whether every interval the record's timestamp
// covers — beyond the record's own writer — has been admitted locally,
// the causal-delivery condition admitRecord buffers on under fault
// injection.  It reads the record counts, not p.vc, which lags them
// inside applyRecords (see Proc.vc): one walk over the record's
// timestamp, one slice length per entry.
func (p *Proc) recCausallyReady(r *IntervalRec) bool {
	for i, q := range r.VC.ps {
		if int(q) != r.Proc && int32(len(p.recs[q])) < r.VC.vs[i] {
			return false
		}
	}
	return true
}

// recTouchesBusy reports whether the record names a twinned or mid-fault
// page.
func (p *Proc) recTouchesBusy(r *IntervalRec) bool {
	if r.Proc == p.id {
		return false
	}
	for _, pid := range r.Pages {
		if pid == p.faultPg || p.pages[pid].twin != nil {
			return true
		}
	}
	return false
}

// noteRecProc adds writer q to the sorted active-writer list.  Callers
// invoke it on the 0→1 transition of len(p.recs[q]), so the list names
// exactly the writers with records filed locally; recordsNotCoveredBy
// iterates it instead of all P processors.
func (p *Proc) noteRecProc(q int) {
	i := 0
	for i < len(p.recProcs) && int(p.recProcs[i]) < q {
		i++
	}
	if i < len(p.recProcs) && int(p.recProcs[i]) == q {
		return
	}
	p.recProcs = append(p.recProcs, 0)
	copy(p.recProcs[i+1:], p.recProcs[i:])
	p.recProcs[i] = int32(q)
}

// recordsNotCoveredBy collects every known interval record the given
// timestamp has not seen, optionally bounded above by limit (records the
// sender knew by its release; the zero VC means unbounded).  The records
// themselves are shared, never copied: they are immutable once
// published.  The slice is freshly allocated at exact size — it travels
// inside a message object and lives until the receiver has applied it.
// Only active writers are scanned, in step with both timestamps, so the
// cost is independent of the processor count.
func (p *Proc) recordsNotCoveredBy(from VC, limit VC) []*IntervalRec {
	total := 0
	fc, lc := vcCursor{v: from}, vcCursor{v: limit}
	for _, q := range p.recProcs {
		if lo, hi := p.notCoveredSpan(q, &fc, &lc); hi > lo {
			total += hi - lo
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]*IntervalRec, 0, total)
	fc, lc = vcCursor{v: from}, vcCursor{v: limit}
	for _, q := range p.recProcs {
		if lo, hi := p.notCoveredSpan(q, &fc, &lc); hi > lo {
			out = append(out, p.recs[q][lo:hi]...)
		}
	}
	return out
}

// notCoveredSpan is recordsNotCoveredBy's per-writer range: writer q's
// record idxs from its entry in from up to its record count, capped by
// its entry in limit unless limit is the zero VC.  The span is empty
// when hi <= lo.
func (p *Proc) notCoveredSpan(q int32, from, limit *vcCursor) (lo, hi int) {
	lo, hi = int(from.get(q)), len(p.recs[q])
	if limit.v.Len() != 0 {
		hi = min(hi, int(limit.get(q)))
	}
	return lo, hi
}

// ---------------------------------------------------------------------
// Locks (paper §2.2.2: static manager, request forwarding, silent release).

// LockAcquire acquires lock id (Tmk_lock_acquire).  If this processor was
// the last holder and nobody has requested the lock since, the acquire is
// local and costs no messages.
func (p *Proc) LockAcquire(id int) {
	// Scheduling point: let protocol events with earlier virtual times
	// (e.g. a pending ownership forward) settle before we examine state.
	p.app.Yield()
	lk := p.lock(id)
	if lk.held {
		panic(fmt.Sprintf("tmk: proc %d re-acquiring held lock %d", p.id, id))
	}
	if lk.owned {
		lk.held = true
		return
	}
	p.closeInterval()
	lk.awaiting = true
	// The live vector backs the request timestamp without a clone: this
	// processor blocks until the grant arrives, and every reader (manager,
	// owner) runs while it is blocked, so the vector cannot move under
	// them.  Under faults a stale duplicate of the request can outlive
	// the block, so the reliable path clones.
	req := &acqMsg{Lock: id, Requester: p.id, VC: p.vc}
	if p.sys.reliable {
		req.Seq = p.nextRPC()
		req.VC = p.arena.cloneVC(p.vc)
	}
	var resend func()
	mgr := p.manager(id)
	if mgr == p.id {
		// We are the manager: perform the manager step locally and
		// forward straight to the last requester.
		mlk := p.lock(id)
		prev := mlk.mgrLast
		mlk.mgrLast = p.id
		if prev == p.id {
			panic("tmk: manager re-requesting a lock it last requested but does not own")
		}
		p.ep.SendObj(p.app, p.sys.procs[prev].srv, tagAcqFwd, req, wireSize(req))
		resend = func() {
			p.ep.SendObjRetrans(p.app, p.sys.procs[prev].srv, tagAcqFwd, req, wireSize(req))
		}
	} else {
		p.ep.SendObj(p.app, p.sys.procs[mgr].srv, tagAcqReq, req, wireSize(req))
		resend = func() {
			p.ep.SendObjRetrans(p.app, p.sys.procs[mgr].srv, tagAcqReq, req, wireSize(req))
		}
	}
	t0 := p.app.Now()
	m := p.rpcRecv(p.app, -1, tagGrant, req.Seq, resend,
		func(o any) int { return o.(*grantMsg).Seq })
	p.LockWait += p.app.Now() - t0
	g := m.Obj.(*grantMsg)
	p.ep.Free(p.app, m) // grant extracted; recycle the envelope
	if g.Lock != id {
		panic(fmt.Sprintf("tmk: proc %d got grant for lock %d while acquiring %d", p.id, g.Lock, id))
	}
	p.applyRecords(g.Records)
	lk.awaiting = false
	lk.owned = true
	lk.held = true
}

// LockRelease releases lock id (Tmk_lock_release).  The release itself
// sends no message; if another processor's request is queued here,
// ownership transfers now.
func (p *Proc) LockRelease(id int) {
	lk := p.lock(id)
	if !lk.held {
		panic(fmt.Sprintf("tmk: proc %d releasing lock %d it does not hold", p.id, id))
	}
	p.closeInterval()
	lk.held = false
	lk.releaseVC = p.vc.Clone()
	lk.releaseAt = p.app.Now()
	if lk.nextGrant >= 0 {
		p.sendGrant(p.app, p.ep, id, lk.nextGrant, lk.nextSeq, lk.nextVC, lk.releaseVC)
		lk.owned = false
		lk.nextGrant = -1
		lk.nextVC = VC{}
		lk.nextSeq = 0
	}
	// Scheduling point so queued protocol work at earlier virtual times
	// (e.g. a forward racing this release) settles before we run on.
	p.app.Yield()
}

// sendGrant ships lock ownership and the write notices the requester
// lacks, bounded by what this processor knew at its release.  seq echoes
// the request's RPC id; in reliable mode the grant is cached for
// resending until ownership provably reached the requester.
func (p *Proc) sendGrant(ctx *sim.Ctx, from *vnet.Endpoint, lockID, requester, seq int, reqVC, limitVC VC) {
	g := &grantMsg{Lock: lockID, Seq: seq, Records: p.recordsNotCoveredBy(reqVC, limitVC)}
	size := wireSize(g)
	from.SendObj(ctx, p.sys.procs[requester].ep, tagGrant, g, size)
	if p.sys.reliable && seq > 0 {
		lk := p.lock(lockID)
		lk.served[requester] = seq
		lk.lastGrantee, lk.lastGrant, lk.lastGrantSize = requester, g, size
	}
}

// ---------------------------------------------------------------------
// Barriers (centralized manager at processor 0; 2*(n-1) messages).

// Barrier stalls the calling processor until all processors have arrived
// at barrier id (Tmk_barrier).
func (p *Proc) Barrier(id int) {
	p.closeInterval()
	if p.sys.cfg.TreeBarrier != 0 {
		p.treeBarrier(id)
		return
	}
	arr := &barrMsg{
		Barrier: id,
		From:    p.id,
		// The live vector is safe to share: this processor blocks until
		// departure, and the manager reads arrival timestamps before any
		// departure is delivered.  Under faults a duplicate can outlive
		// the block, so the reliable path clones.
		VC:      p.vc,
		Records: p.recordsNotCoveredBy(p.lastMgrVC, VC{}),
	}
	if p.sys.reliable {
		arr.Seq = p.nextRPC()
		arr.VC = p.arena.cloneVC(p.vc)
	}
	mgr := p.sys.procs[p.sys.barrierMgr(id)]
	size := wireSize(arr)
	p.ep.SendObj(p.app, mgr.srv, tagBarrArrive, arr, size)
	t0 := p.app.Now()
	m := p.rpcRecv(p.app, mgr.id, tagBarrDepart, arr.Seq,
		func() { p.ep.SendObjRetrans(p.app, mgr.srv, tagBarrArrive, arr, size) },
		func(o any) int { return o.(*barrMsg).Seq })
	p.BarrierWait += p.app.Now() - t0
	dep := m.Obj.(*barrMsg)
	p.ep.Free(p.app, m) // departure extracted; recycle the envelope
	if dep.Barrier != id {
		panic(fmt.Sprintf("tmk: proc %d got departure for barrier %d while in %d", p.id, dep.Barrier, id))
	}
	p.applyRecords(dep.Records)
	p.vc.Merge(dep.VC)
	p.lastMgrVC = dep.VC.Clone()
}

// mergeRecordBatches head-merges record batches into a sorted,
// deduplicated union.  Each batch must be in (Proc, Idx) order; every
// head carrying the chosen key advances together, so a record announced
// by several batches appears once.  union and heads are caller-provided
// scratch (length zero) whose grown backing arrays are returned for
// reuse.
func mergeRecordBatches(batches [][]*IntervalRec, union []*IntervalRec, heads []int) ([]*IntervalRec, []int) {
	for range batches {
		heads = append(heads, 0)
	}
	for {
		var best *IntervalRec
		for i, b := range batches {
			if heads[i] == len(b) {
				continue
			}
			r := b[heads[i]]
			if best == nil || r.Proc < best.Proc || (r.Proc == best.Proc && r.Idx < best.Idx) {
				best = r
			}
		}
		if best == nil {
			return union, heads
		}
		union = append(union, best)
		for i, b := range batches {
			if heads[i] < len(b) {
				if r := b[heads[i]]; r.Proc == best.Proc && r.Idx == best.Idx {
					heads[i]++
				}
			}
		}
	}
}

// handleBarrArrive runs in processor 0's service daemon.
func (p *Proc) handleBarrArrive(ctx *sim.Ctx, m *barrMsg) {
	bs := p.barrier
	if p.sys.reliable && m.Seq > 0 {
		if bs.lastSeq == nil {
			bs.lastSeq = make([]int, p.sys.n)
			bs.lastDep = make([]*barrMsg, p.sys.n)
			bs.lastSize = make([]int, p.sys.n)
		}
		if m.Seq <= bs.lastSeq[m.From] {
			// Duplicate of an answered arrival: the departure may have
			// been lost, so resend the cached copy for the latest one;
			// older floating duplicates are dropped.
			if m.Seq == bs.lastSeq[m.From] && bs.lastDep[m.From] != nil {
				p.srv.SendObjRetrans(ctx, p.sys.procs[m.From].ep, tagBarrDepart,
					bs.lastDep[m.From], bs.lastSize[m.From])
			}
			return
		}
		for _, a := range bs.arrived {
			if a.From == m.From {
				return // retransmission of a current, not-yet-answered arrival
			}
		}
	}
	if len(bs.arrived) == 0 {
		bs.id = m.Barrier
	} else if bs.id != m.Barrier {
		panic(fmt.Sprintf("tmk: barrier mismatch: %d vs %d", bs.id, m.Barrier))
	}
	bs.arrived = append(bs.arrived, m)
	if len(bs.arrived) < p.sys.n {
		return
	}
	// All arrived: merge and redistribute.  Each arrival's record batch is
	// already in (Proc, Idx) order — recordsNotCoveredBy emits it that way
	// — so a head merge over the batches builds the sorted, deduplicated
	// union directly: no per-barrier map, no sort.  Duplicates across
	// batches are the same shared record (records are published once by
	// their writer and travel by reference) and every head carrying the
	// chosen key advances together.
	merged := NewVC(p.sys.n)
	bs.batches = bs.batches[:0]
	for _, a := range bs.arrived {
		merged.Merge(a.VC)
		bs.batches = append(bs.batches, a.Records)
	}
	bs.union, bs.heads = mergeRecordBatches(bs.batches, bs.union[:0], bs.heads[:0])
	union := bs.union
	// Departures: each client gets the union entries it has not seen, in
	// the union's (Proc, Idx) order.
	for _, a := range bs.arrived {
		dep := &barrMsg{Barrier: bs.id, From: p.id, Seq: a.Seq, VC: merged,
			Records: recordsLacked(union, a.VC, nil)}
		size := wireSize(dep)
		p.srv.SendObj(ctx, p.sys.procs[a.From].ep, tagBarrDepart, dep, size)
		if p.sys.reliable && a.Seq > 0 {
			bs.lastSeq[a.From] = a.Seq
			bs.lastDep[a.From] = dep
			bs.lastSize[a.From] = size
		}
	}
	bs.arrived = bs.arrived[:0]
	bs.id = -1
}

// ---------------------------------------------------------------------
// Combining-tree barrier (Config.TreeBarrier; the tmk-tree variant).
//
// Arrivals aggregate up a radix-k tree rooted at processor 0 and
// departures fan back down it.  An internal node's application thread
// sends its own arrival to its own service daemon — a free loopback hop
// — where it occupies slot 0 of the aggregation state; each child
// subtree's arrival occupies one further slot.  When all slots fill,
// the node forwards one merged arrival up (or, at the root, starts
// redistribution).  Departures reverse the path: each edge carries only
// the records some member of the target subtree lacks (filtered by the
// subtree's pointwise-minimum timestamp) minus the records that subtree
// announced itself, which the child re-adds from its own union before
// filtering further down.

// treeBarrier is the client side: send the arrival to the aggregation
// point — this processor's own service daemon if it is an internal
// node, its parent's otherwise — and block for the departure from the
// same place.
func (p *Proc) treeBarrier(id int) {
	arr := &treeArrMsg{
		Barrier: id,
		From:    p.id,
		// Live shares, like the centralized arrival: this processor
		// blocks until its departure, and every aggregation step that
		// reads the vector runs before that departure is sent.  (Tree
		// mode never runs reliable, so no duplicate outlives the block.)
		VC:      p.vc,
		MinVC:   p.vc,
		Records: p.recordsNotCoveredBy(p.lastMgrVC, VC{}),
	}
	dst := p
	if p.tree == nil {
		dst = p.sys.procs[(p.id-1)/p.sys.cfg.TreeBarrier]
	}
	p.ep.SendObj(p.app, dst.srv, tagTreeArrive, arr, wireSize(arr))
	t0 := p.app.Now()
	m := p.ep.Recv(p.app, dst.id, tagTreeDepart)
	p.BarrierWait += p.app.Now() - t0
	dep := m.Obj.(*barrMsg)
	p.ep.Free(p.app, m) // departure extracted; recycle the envelope
	if dep.Barrier != id {
		panic(fmt.Sprintf("tmk: proc %d got tree departure for barrier %d while in %d",
			p.id, dep.Barrier, id))
	}
	p.applyRecords(dep.Records)
	p.vc.Merge(dep.VC)
	p.lastMgrVC = dep.VC.Clone()
}

// handleTreeArrive files one arrival (own or a child subtree's) and,
// when the subtree is complete, aggregates: merged max/min timestamps
// and the deduplicated record union, forwarded up — or redistributed,
// at the root.
func (p *Proc) handleTreeArrive(ctx *sim.Ctx, m *treeArrMsg) {
	ts := p.tree
	if ts == nil {
		panic(fmt.Sprintf("tmk: tree arrival at leaf %d", p.id))
	}
	slot := 0
	if m.From != p.id {
		slot = m.From - p.sys.cfg.TreeBarrier*p.id
		if slot < 1 || slot >= len(ts.arr) {
			panic(fmt.Sprintf("tmk: proc %d got tree arrival from non-child %d", p.id, m.From))
		}
	}
	if ts.got == 0 {
		ts.id = m.Barrier
	} else if ts.id != m.Barrier {
		panic(fmt.Sprintf("tmk: tree barrier mismatch: %d vs %d", ts.id, m.Barrier))
	}
	if ts.arr[slot] != nil {
		panic(fmt.Sprintf("tmk: duplicate tree arrival in slot %d at proc %d", slot, p.id))
	}
	ts.arr[slot] = m
	ts.got++
	if ts.got < len(ts.arr) {
		return
	}
	// Subtree complete.  Aggregate in slot order (deterministic): the
	// pointwise max feeds the global timestamp, the pointwise min is the
	// filter bound for departures into this subtree, and the head-merged
	// union both rides up and — held here — later cancels records the
	// subtree already announced.
	agg := NewVC(p.sys.n)
	min := ts.arr[0].VC.Clone()
	ts.batches = ts.batches[:0]
	for _, a := range ts.arr {
		agg.Merge(a.VC)
		min.MergeMin(a.MinVC)
		ts.batches = append(ts.batches, a.Records)
	}
	ts.union, ts.heads = mergeRecordBatches(ts.batches, ts.union[:0], ts.heads[:0])
	if p.id == 0 {
		p.treeRedistribute(ctx, agg, ts.union)
		return
	}
	up := &treeArrMsg{Barrier: ts.id, From: p.id, VC: agg, MinVC: min, Records: ts.union}
	parent := p.sys.procs[(p.id-1)/p.sys.cfg.TreeBarrier]
	p.srv.SendObj(ctx, parent.srv, tagTreeArrive, up, wireSize(up))
	// State (arrivals, union) stays live: the departure coming back down
	// needs the per-child filters and the subtree-exclusion set.
}

// handleTreeDown merges an internal node's held union back into the
// departure set its parent sent (the parent excluded exactly those
// records) and redistributes into the subtree.
func (p *Proc) handleTreeDown(ctx *sim.Ctx, m *barrMsg) {
	ts := p.tree
	if ts == nil || ts.got != len(ts.arr) || ts.id != m.Barrier {
		panic(fmt.Sprintf("tmk: proc %d got tree departure in bad state", p.id))
	}
	ts.batches = ts.batches[:0]
	ts.batches = append(ts.batches, m.Records, ts.union)
	ts.down, ts.heads = mergeRecordBatches(ts.batches, ts.down[:0], ts.heads[:0])
	p.treeRedistribute(ctx, m.VC, ts.down)
}

// treeRedistribute sends the departure to every child subtree and to
// this node's own application thread, then resets the aggregation
// state.  needed is the set of records any member of this subtree might
// lack; each edge filters it by the target's minimum timestamp and
// subtracts what the target announced itself.
func (p *Proc) treeRedistribute(ctx *sim.Ctx, depVC VC, needed []*IntervalRec) {
	ts := p.tree
	k := p.sys.cfg.TreeBarrier
	for s := 1; s < len(ts.arr); s++ {
		a := ts.arr[s]
		c := k*p.id + s
		dep := &barrMsg{Barrier: ts.id, From: p.id, VC: depVC,
			Records: recordsLacked(needed, a.MinVC, a.Records)}
		if p.sys.treeKids(c) > 0 {
			p.srv.SendObj(ctx, p.sys.procs[c].srv, tagTreeDown, dep, wireSize(dep))
		} else {
			p.srv.SendObj(ctx, p.sys.procs[c].ep, tagTreeDepart, dep, wireSize(dep))
		}
	}
	self := &barrMsg{Barrier: ts.id, From: p.id, VC: depVC,
		Records: recordsLacked(needed, ts.arr[0].VC, nil)}
	p.srv.SendObj(ctx, p.ep, tagTreeDepart, self, wireSize(self)) // loopback
	for i := range ts.arr {
		ts.arr[i] = nil
	}
	ts.got = 0
	ts.id = -1
}

// recordsLacked returns the entries of union not covered by vc, minus
// the records in sub (both union and sub are in (Proc, Idx) order; nil
// sub skips the subtraction).  vc is read in step with union.  Freshly
// allocated at exact size — the slice travels inside a departure
// message.
func recordsLacked(union []*IntervalRec, vc VC, sub []*IntervalRec) []*IntervalRec {
	count := 0
	j := 0
	c := vcCursor{v: vc}
	for _, r := range union {
		if c.get(int32(r.Proc)) > int32(r.Idx) {
			continue
		}
		for j < len(sub) && (sub[j].Proc < r.Proc || (sub[j].Proc == r.Proc && sub[j].Idx < r.Idx)) {
			j++
		}
		if j < len(sub) && sub[j].Proc == r.Proc && sub[j].Idx == r.Idx {
			continue
		}
		count++
	}
	if count == 0 {
		return nil
	}
	out := make([]*IntervalRec, 0, count)
	j = 0
	c = vcCursor{v: vc}
	for _, r := range union {
		if c.get(int32(r.Proc)) > int32(r.Idx) {
			continue
		}
		for j < len(sub) && (sub[j].Proc < r.Proc || (sub[j].Proc == r.Proc && sub[j].Idx < r.Idx)) {
			j++
		}
		if j < len(sub) && sub[j].Proc == r.Proc && sub[j].Idx == r.Idx {
			continue
		}
		out = append(out, r)
	}
	return out
}

// ---------------------------------------------------------------------
// Service daemon: answers lock requests, forwards, and diff requests.
// It stands in for the real system's SIGIO handlers.

func (p *Proc) serve(ctx *sim.Ctx) {
	for {
		m := p.srv.Recv(ctx, -1, -1)
		ctx.Compute(p.sys.cfg.HandlerOverhead)
		tag, obj := m.Tag, m.Obj
		p.srv.Free(ctx, m) // handlers keep the Obj, never the envelope
		switch tag {
		case tagAcqReq:
			req := obj.(*acqMsg)
			lk := p.lock(req.Lock)
			if p.sys.reliable && req.Seq > 0 {
				if last, ok := lk.mgrSeen[req.Requester]; ok && req.Seq <= last {
					// Duplicate.  A retransmission of the requester's current
					// request re-forwards to the original target (the fwd or
					// grant may have been lost); anything older is a floating
					// copy of a completed acquire and is dropped.
					if req.Seq == last {
						if tgt := lk.mgrFwd[req.Requester]; tgt == p.id {
							p.grantOrQueue(ctx, req)
						} else {
							p.srv.SendObjRetrans(ctx, p.sys.procs[tgt].srv, tagAcqFwd, req, wireSize(req))
						}
					}
					continue
				}
				lk.mgrSeen[req.Requester] = req.Seq
			}
			prev := lk.mgrLast
			lk.mgrLast = req.Requester
			if p.sys.reliable && req.Seq > 0 {
				lk.mgrFwd[req.Requester] = prev
			}
			if prev == p.id {
				p.grantOrQueue(ctx, req)
			} else {
				p.srv.SendObj(ctx, p.sys.procs[prev].srv, tagAcqFwd, req, wireSize(req))
			}
		case tagAcqFwd:
			p.grantOrQueue(ctx, obj.(*acqMsg))
		case tagBarrArrive:
			m := obj.(*barrMsg)
			if p.id != p.sys.barrierMgr(m.Barrier) {
				panic("tmk: barrier arrival at non-manager")
			}
			p.handleBarrArrive(ctx, m)
		case tagTreeArrive:
			p.handleTreeArrive(ctx, obj.(*treeArrMsg))
		case tagTreeDown:
			p.handleTreeDown(ctx, obj.(*barrMsg))
		case tagDiffReq:
			p.handleDiffReq(ctx, obj.(*diffReqMsg))
		case tagInval:
			im := obj.(*invMsg)
			if p.sys.cfg.TreeFanout != 0 {
				// Multicast relay: forward to this node's children in the
				// writer-rooted tree before applying locally.
				p.sendInvalChildren(ctx, p.srv, im,
					(p.id-im.From+p.sys.n)%p.sys.n)
			}
			p.handleInval(im)
		default:
			panic(fmt.Sprintf("tmk: service got unexpected tag %d", tag))
		}
	}
}

// grantOrQueue hands the lock to the requester if this processor is done
// with it, or queues the request for the next release.
func (p *Proc) grantOrQueue(ctx *sim.Ctx, req *acqMsg) {
	lk := p.lock(req.Lock)
	if p.sys.reliable && req.Seq > 0 {
		if s, ok := lk.served[req.Requester]; ok && req.Seq <= s {
			// Already granted.  If it is the most recent grant this
			// processor issued, the grant itself may have been lost:
			// resend the cached copy.  Otherwise the requester has
			// provably received it (ownership advanced past it) and the
			// duplicate is dropped.
			if req.Seq == s && lk.lastGrantee == req.Requester && lk.lastGrant != nil {
				p.srv.SendObjRetrans(ctx, p.sys.procs[req.Requester].ep, tagGrant,
					lk.lastGrant, lk.lastGrantSize)
			}
			return
		}
		if lk.nextGrant == req.Requester && lk.nextSeq == req.Seq {
			return // duplicate of the already-queued request
		}
	}
	if !lk.owned && !lk.awaiting {
		panic(fmt.Sprintf("tmk: proc %d got forward for lock %d it neither owns nor awaits",
			p.id, req.Lock))
	}
	if lk.held || lk.awaiting {
		if lk.nextGrant >= 0 {
			panic("tmk: second queued lock requester")
		}
		lk.nextGrant = req.Requester
		lk.nextVC = req.VC
		lk.nextSeq = req.Seq
		return
	}
	// Lock is free.  Its release happened at lk.releaseAt; a grant cannot
	// precede that release in virtual time.
	if lk.releaseAt > ctx.Now() {
		ctx.Compute(lk.releaseAt - ctx.Now())
	}
	p.sendGrant(ctx, p.srv, req.Lock, req.Requester, req.Seq, req.VC, lk.releaseVC)
	lk.owned = false
}

// handleDiffReq returns the requested diffs, which by the protocol's
// dominance argument this processor must hold (paper §2.2.2: a processor
// that modified a page in an interval holds the diffs of all intervals
// that precede it).
func (p *Proc) handleDiffReq(ctx *sim.Ctx, req *diffReqMsg) {
	if p.sys.reliable && req.Seq > 0 {
		// A requester's RPCs to one server are sequential, so a request
		// at or below the last answered Seq is a duplicate: resend the
		// cached response for the latest one, drop anything older.
		if last := p.diffLastSeq[req.Requester]; last > 0 && req.Seq <= last {
			if req.Seq == last {
				p.srv.SendObjRetrans(ctx, p.sys.procs[req.Requester].ep, tagDiffResp,
					p.diffLastResp[req.Requester], p.diffLastSize[req.Requester])
			}
			return
		}
	}
	pg := p.pages[req.Page]
	entries := make([]diffEntry, 0, len(req.Wants))
	for _, w := range req.Wants {
		d := p.diffOf(pg, w.Proc, w.Idx)
		if d == nil {
			panic(fmt.Sprintf("tmk: proc %d asked for diff (page %d, proc %d, idx %d) it does not hold",
				p.id, req.Page, w.Proc, w.Idx))
		}
		entries = append(entries, diffEntry{Proc: w.Proc, Idx: w.Idx, Diff: d})
	}
	resp := &diffRespMsg{Page: req.Page, Seq: req.Seq, Entries: entries}
	size := wireSize(resp)
	p.srv.SendObj(ctx, p.sys.procs[req.Requester].ep, tagDiffResp, resp, size)
	if p.sys.reliable && req.Seq > 0 {
		if p.diffLastSeq == nil {
			p.diffLastSeq = map[int]int{}
			p.diffLastResp = map[int]*diffRespMsg{}
			p.diffLastSize = map[int]int{}
		}
		p.diffLastSeq[req.Requester] = req.Seq
		p.diffLastResp[req.Requester] = resp
		p.diffLastSize[req.Requester] = size
	}
}

// ---------------------------------------------------------------------
// Access faults.

// fault brings a page up to date: it determines the missing diffs,
// requests them from a minimal set of previous writers, and applies all
// pending diffs in happens-before order (paper §2.2.2).
func (p *Proc) fault(pid int) {
	cfg := p.sys.cfg
	p.app.Compute(cfg.FaultOverhead)
	p.Faults++
	pg := p.pages[pid]
	// The fault spans service-daemon activity (it blocks for diff
	// responses): eager invalidations for this page must queue until the
	// pending-notice set chosen below has been applied.
	p.faultPg = pid

	// Which write notices lack local diffs?
	missing := p.missBuf[:0]
	for _, w := range pg.wn {
		if p.diffOf(pg, w.Proc, w.Idx) == nil {
			missing = append(missing, w)
		}
	}

	if len(missing) > 0 {
		targets := p.minimalCover(missing)
		// Send all requests, then collect all responses (the real system
		// overlaps them the same way).  The request objects live in a
		// per-fault scratch: every server reads its request before
		// answering, and all answers arrive before this fault ends, so
		// the scratch is provably quiescent when the next fault reuses it.
		// Under faults that proof dies — a duplicate or reordered request
		// can reach the server after this fault returned — so the
		// reliable path allocates fresh objects and clones the want lists
		// out of the cover scratch.
		var reqs []diffReqMsg
		if p.sys.reliable {
			reqs = make([]diffReqMsg, len(targets))
		} else {
			if cap(p.reqMsgs) < len(targets) {
				p.reqMsgs = make([]diffReqMsg, len(targets))
			}
			reqs = p.reqMsgs[:len(targets)]
		}
		for i := range targets {
			t := &targets[i]
			wants := t.wants
			seq := 0
			if p.sys.reliable {
				wants = append([]diffWant(nil), t.wants...)
				seq = p.nextRPC()
			}
			reqs[i] = diffReqMsg{Page: pid, Requester: p.id, Seq: seq, Wants: wants}
			p.ep.SendObj(p.app, p.sys.procs[t.proc].srv, tagDiffReq, &reqs[i], wireSize(&reqs[i]))
			p.DiffRequests++
		}
		for i := range targets {
			r := &reqs[i]
			tgt := targets[i].proc
			m := p.rpcRecv(p.app, tgt, tagDiffResp, r.Seq,
				func() { p.ep.SendObjRetrans(p.app, p.sys.procs[tgt].srv, tagDiffReq, r, wireSize(r)) },
				func(o any) int { return o.(*diffRespMsg).Seq })
			resp := m.Obj.(*diffRespMsg)
			p.ep.Free(p.app, m) // response extracted; recycle the envelope
			if resp.Page != pid {
				panic("tmk: diff response for wrong page")
			}
			for _, e := range resp.Entries {
				p.storeDiff(pg, e.Proc, e.Idx, e.Diff)
			}
		}
	}
	p.missBuf = missing[:0]

	// Apply every pending notice's diff in happens-before order.
	p.applyPending(pid)
	pg.valid = true
	p.faultPg = -1
}

// coverTarget is one processor to ask, and what to ask it for.
type coverTarget struct {
	proc  int
	wants []diffWant
}

// coverScratch is minimalCover's reusable state.  latest, row and cands
// are reset on entry, so a panic unwinding mid-cover leaves nothing that the
// next call could observe; targets — including the want lists inside —
// back the returned slice and stay valid only until this processor's next
// fault.
type coverScratch struct {
	latest  []*IntervalRec // per writer: latest missing interval (nil: none)
	cands   []int          // writers with missing diffs, ascending
	row     []int32        // per processor: largest entry another candidate's latest timestamp has
	targets []coverTarget  // chosen writers; slice length is the high-water mark
}

// minimalCover picks the subset of writers to contact: a writer whose
// latest interval for the page has been seen by another candidate's latest
// interval need not be asked, because the dominating writer holds its
// diffs too (paper §2.2.2).  Interval timestamps are transitively closed
// (a record's VC covers the VC of every interval it has seen), so one
// component test is exactly the vector comparison: q is dominated iff
// some other candidate's timestamp exceeds latest[q].Idx at q.  Every
// candidate's timestamp is scattered once into a dense row holding, per
// processor, the largest such entry, so the test costs one lookup per
// candidate instead of a search per candidate pair.  The returned
// targets alias the processor's cover scratch: valid only until the
// next fault.
func (p *Proc) minimalCover(missing []diffWant) []coverTarget {
	cs := &p.cover
	if cs.latest == nil {
		cs.latest = make([]*IntervalRec, p.sys.n)
		cs.row = make([]int32, p.sys.n)
	}
	clear(cs.latest)
	clear(cs.row)
	cands := cs.cands[:0]
	for _, w := range missing {
		rec := p.recs[w.Proc][w.Idx]
		if cur := cs.latest[w.Proc]; cur == nil || rec.Idx > cur.Idx {
			if cur == nil {
				cands = append(cands, w.Proc)
			}
			cs.latest[w.Proc] = rec
		}
	}
	sort.Ints(cands)
	cs.cands = cands
	for _, r := range cands {
		vc := cs.latest[r].VC
		for i, q := range vc.ps {
			if int(q) != r && vc.vs[i] > cs.row[q] {
				cs.row[q] = vc.vs[i]
			}
		}
	}
	// Keep the non-dominated candidates, reusing target slots (and their
	// want-list backing arrays) from previous faults.
	nt := 0
	for _, q := range cands {
		if cs.row[q] > int32(cs.latest[q].Idx) {
			continue // dominated
		}
		if nt < len(cs.targets) {
			cs.targets[nt].proc = q
			cs.targets[nt].wants = cs.targets[nt].wants[:0]
		} else {
			cs.targets = append(cs.targets, coverTarget{proc: q})
		}
		nt++
	}
	targets := cs.targets[:nt]
	// Assign each missing diff to the first chosen writer that has seen it.
	for _, w := range missing {
		placed := false
		for i := range targets {
			if cs.latest[targets[i].proc].VC.CoversInterval(w.Proc, w.Idx) {
				targets[i].wants = append(targets[i].wants, w)
				placed = true
				break
			}
		}
		if !placed {
			panic("tmk: missing diff not covered by any chosen writer")
		}
	}
	return targets
}

// applyPending applies every outstanding diff for a page in the protocol's
// happens-before linear order: repeatedly the lowest-numbered writer whose
// next pending interval is not preceded by another writer's pending
// interval.  Within one writer intervals are totally ordered, and an
// unapplied interval of writer r precedes (q, i) only if r's pending head
// does, so only per-writer heads need comparing; head (q, i) is ready iff
// no other head (r, j) satisfies rec(q,i).VC[r] > j — the component test
// again standing in for the full vector comparison.  This reproduces
// exactly the order of the former repeated-minimal-scan (lexicographically
// smallest topological extension by (proc, idx)) at O(k·(W+V)) for k
// notices, W ≤ nprocs pending writers and timestamps of at most V
// entries — each head's timestamp is walked once over its life — instead
// of O(k³).
func (p *Proc) applyPending(pid int) {
	pg := p.pages[pid]
	k := len(pg.wn)
	if k == 0 {
		return
	}
	cfg := p.sys.cfg
	data := p.ownData(pg)

	// Fast path: all notices from one writer, already in interval order.
	single := true
	for i := 1; i < k; i++ {
		if pg.wn[i].Proc != pg.wn[0].Proc {
			single = false
			break
		}
	}
	if single {
		for _, w := range pg.wn {
			p.applyOne(pg, data, w.Proc, w.Idx, cfg)
		}
		pg.wn = pg.wn[:0]
		return
	}

	// Group pending interval idxs by writer.  The grouping is stable, so
	// each group keeps the increasing idx order applyRecords established.
	n := p.sys.n
	if p.wrCount == nil {
		p.wrCount = make([]int32, n)
		p.wrPos = make([]int32, n)
		p.wrEnd = make([]int32, n)
		p.wrBlock = make([]int32, n)
	}
	count := p.wrCount
	for _, w := range pg.wn {
		count[w.Proc]++
	}
	writers := p.wrList[:0]
	off := int32(0)
	for q := 0; q < n; q++ {
		if count[q] == 0 {
			continue
		}
		writers = append(writers, int32(q))
		p.wrPos[q] = off
		off += count[q]
		p.wrEnd[q] = off
		p.wrBlock[q] = -1
		count[q] = off - count[q] // scatter cursor: group start
	}
	p.wrList = writers
	if cap(p.wrIdx) < k {
		p.wrIdx = make([]int32, k)
	}
	idxs := p.wrIdx[:k]
	for _, w := range pg.wn {
		idxs[count[w.Proc]] = int32(w.Idx)
		count[w.Proc]++
	}
	for _, q := range writers {
		count[q] = 0 // leave the shared counter clean for the next call
	}

	// Merge: scan writers in ascending proc order, apply the first ready
	// head, restart.  Within this call the pending writers are fixed and
	// each head only advances, so a component of a head's timestamp that
	// did not block it never will.  A blocked head therefore remembers
	// where in its timestamp the blocking component sits (wrBlock) and
	// re-tests only that one until the blocker's head moves past it or
	// drains; then the walk resumes after it, never from the start.
	// "Writer r is pending" is wrPos[r] < wrEnd[r], valid for every r:
	// each call drains all its writers, leaving the cursors equal.  Same
	// predicate, evaluated lazily: same order.
	for remaining := k; remaining > 0; {
		progress := false
		for _, q := range writers {
			qi := int(q)
			if p.wrPos[qi] == p.wrEnd[qi] {
				continue
			}
			h := int(idxs[p.wrPos[qi]])
			vc := p.recs[qi][h].VC
			b := p.wrBlock[qi]
			if b >= 0 {
				if r := vc.ps[b]; p.wrPos[r] < p.wrEnd[r] && vc.vs[b] > idxs[p.wrPos[r]] {
					continue // still blocked
				}
			}
			from := b + 1
			b = -1
			for i := from; int(i) < len(vc.ps); i++ {
				if r := vc.ps[i]; r != q && p.wrPos[r] < p.wrEnd[r] && vc.vs[i] > idxs[p.wrPos[r]] {
					b = i
					break
				}
			}
			p.wrBlock[qi] = b
			if b >= 0 {
				continue
			}
			p.applyOne(pg, data, qi, h, cfg)
			p.wrPos[qi]++
			remaining--
			progress = true
			break
		}
		if !progress {
			panic("tmk: cycle in happens-before order")
		}
	}
	pg.wn = pg.wn[:0]
}

// applyOne applies the stored diff of (writer proc, interval idx) to data,
// charging modeled time and behavioral counters.
func (p *Proc) applyOne(pg *page, data []byte, proc, idx int, cfg Config) {
	d := p.diffOf(pg, proc, idx)
	if d == nil {
		panic(fmt.Sprintf("tmk: proc %d applying diff (proc %d, idx %d) it does not hold",
			p.id, proc, idx))
	}
	d.Apply(data)
	p.DiffsApplied++
	p.DiffBytes += int64(d.Size())
	p.app.Compute(sim.Time(d.Size()) * cfg.DiffApplyPerByte)
}

// ownData returns the page's bytes for mutation — the first write of an
// interval (writable) or diff application (applyPending).  A never-written
// page materializes as zeros; a page still aliasing the preloaded image is
// copied first, at no modeled cost, like the preload itself.  The read
// cache may window the image's bytes (Store reaches writable without
// refilling it), so it is dropped with them.
func (p *Proc) ownData(pg *page) []byte {
	switch {
	case pg.data == nil:
		pg.data = make([]byte, p.sys.cfg.PageSize)
	case pg.image:
		pg.data, pg.image = append([]byte(nil), pg.data...), false
		p.rc = accCache{}
	}
	return pg.data
}

// readable ensures the page is valid for reading.
func (p *Proc) readable(pid int) *page {
	pg := p.pages[pid]
	if !pg.valid {
		p.fault(pid)
	}
	return pg
}

// writable ensures the page is valid and twinned for writing; the first
// write in an interval saves a twin and records the page as dirty.
func (p *Proc) writable(pid int) *page {
	pg := p.pages[pid]
	if !pg.valid {
		p.fault(pid)
	}
	if pg.twin == nil {
		cfg := p.sys.cfg
		data := p.ownData(pg)
		if n := len(p.twinFree); n > 0 {
			pg.twin = p.twinFree[n-1]
			p.twinFree = p.twinFree[:n-1]
			copy(pg.twin, data)
		} else {
			pg.twin = append([]byte(nil), data...)
		}
		p.app.Compute(sim.Time(cfg.PageSize) * cfg.TwinPerByte)
		p.dirty = append(p.dirty, pid)
	}
	return pg
}
