package tmk

import (
	"errors"
	"fmt"
	"reflect"

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
	// Requires EagerInvalidate (tmk-sc-tree).
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

	// The protocol variants, chosen once by NewSystem from Config.
	barrier  barrierVariant
	notices  noticeVariant
	lockMgrs int // lock id's manager is id mod lockMgrs: n by default, 1 (CentralLockMgr) puts all on processor 0

	// At-least-once RPC layer, armed only when the network can lose,
	// duplicate or reorder messages (see the package fault-model doc).
	reliable bool
	// causalAdmit buffers eager notices that arrive ahead of records
	// their timestamp covers (admitRecord).  Armed with reliable (loss
	// reorders notices) and with relayed notices: a relayed notice
	// crosses several hops while a causally-earlier notice from a
	// different writer may still be mid-relay in its own tree, so one-hop
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
	case cfg.TreeFanout != 0 && !cfg.EagerInvalidate:
		return errors.New("tmk: TreeFanout requires EagerInvalidate")
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
	s := &System{eng: eng, net: net, cfg: cfg, n: n, initial: map[int][]byte{},
		barrier: barrierVariant{mgrs: 1}, lockMgrs: n}
	switch {
	case cfg.TreeBarrier != 0:
		s.barrier = barrierVariant{kind: barrierTree, radix: cfg.TreeBarrier}
	case cfg.SpreadBarrierMgr:
		s.barrier.mgrs = n
	}
	switch {
	case cfg.TreeFanout != 0:
		s.notices = noticeVariant{kind: noticesRelayed, radix: cfg.TreeFanout}
	case cfg.EagerInvalidate:
		s.notices.kind = noticesFlat
	}
	if cfg.CentralLockMgr {
		s.lockMgrs = 1
	}
	s.reliable = nc.Faults.Lossy()
	s.causalAdmit = s.reliable || s.notices.kind == noticesRelayed
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
		switch b := s.barrier; {
		case b.kind == barrierTree:
			// Aggregation state lives on every processor with children
			// (ids k*i+1 .. k*i+k that exist), and on the root even when
			// childless (n=1).
			if lo := b.radix*i + 1; lo < n || i == 0 {
				p.tree = &treeBarrState{id: -1, arr: make([]*treeArrMsg, 1+min(b.radix, n-lo))}
			}
		case i < b.mgrs: // processors 0 .. mgrs-1 each manage some barrier id
			p.barrier = &barrierState{id: -1}
		}
		s.procs = append(s.procs, p)
	}
	return s
}

// N returns the number of processors.
func (s *System) N() int { return s.n }

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

// initImage preloads bytes [a, a+n) of shared memory, present on every
// processor at no modeled cost.  The paper's measurements exclude initial
// data distribution (e.g. SOR's first iteration, FFT's initial value
// distribution); preloading models that exclusion.  On the host the image
// is held once and shared read-only: a processor copies a page out of it
// on its first local mutation, also at no modeled cost.
//
// initImage hands put each page's share of the range in address order:
// dst is that share of the image page, i its offset in the range.  The
// Init* encoders write straight into it, with no staging copy of the
// range (12 MB per SOR array at paper scale).  An element of width w
// starts at a multiple of w and pages are multiples of 8, so no element
// is split across two shares.
func (s *System) initImage(a Addr, n, w int, put func(dst []byte, i int)) {
	if s.started {
		panic("tmk: Init after start")
	}
	if int(a)%w != 0 {
		panic(fmt.Sprintf("tmk: misaligned %d-byte preload at %d", w, a))
	}
	ps := s.cfg.PageSize
	for i := 0; i < n; {
		pg, off := (int(a)+i)/ps, (int(a)+i)%ps
		k := min(ps-off, n-i)
		dst := s.initial[pg]
		if dst == nil {
			dst = make([]byte, ps)
			s.initial[pg] = dst
		}
		put(dst[off:off+k], i)
		i += k
	}
}

// InitF64 preloads a float64 slice at address a.
func (s *System) InitF64(a Addr, vals []float64) {
	s.initImage(a, 8*len(vals), 8, func(dst []byte, i int) { encF64(dst, vals[i/8:][:len(dst)/8]) })
}

// InitI32 preloads an int32 slice at address a.
func (s *System) InitI32(a Addr, vals []int32) {
	s.initImage(a, 4*len(vals), 4, func(dst []byte, i int) { encI32(dst, vals[i/4:][:len(dst)/4]) })
}

// InitI64 preloads an int64 slice at address a.
func (s *System) InitI64(a Addr, vals []int64) {
	s.initImage(a, 8*len(vals), 8, func(dst []byte, i int) { encI64(dst, vals[i/8:][:len(dst)/8]) })
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
	// diff server's answers.
	rpcSeq     int
	futureRecs []*IntervalRec
	diffs      replyCache

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

	Counters
}

// Counters are a processor's behavioral counters (not wire stats), the
// TreadMarks detail of a run's analysis output.  Every field is an
// integer: System.Counters sums them field by field.
type Counters struct {
	Faults       int
	DiffRequests int
	DiffsApplied int
	DiffBytes    int64
	LockWait     sim.Time // time blocked in remote lock acquires
	BarrierWait  sim.Time // time blocked in barriers
	Timeouts     int      // RPC timeouts fired (retransmissions triggered)
}

// Counters returns the processors' counters summed.
func (s *System) Counters() Counters {
	var sum Counters
	total := reflect.ValueOf(&sum).Elem()
	for _, p := range s.procs {
		c := reflect.ValueOf(&p.Counters).Elem()
		for i := range c.NumField() {
			total.Field(i).SetInt(total.Field(i).Int() + c.Field(i).Int())
		}
	}
	return sum
}

// ID returns the processor id.
func (p *Proc) ID() int { return p.id }

// N returns the number of processors.
func (p *Proc) N() int { return p.sys.n }

// Ctx exposes the application thread's sim context.
func (p *Proc) Ctx() *sim.Ctx { return p.app }

// Compute charges local computation time to the application thread.
func (p *Proc) Compute(d sim.Time) { p.app.Compute(d) }

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
