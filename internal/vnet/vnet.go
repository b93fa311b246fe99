// Package vnet models the interconnect of a 1995-era workstation cluster:
// a 100 Mbit/s FDDI ring carrying UDP datagrams (used by TreadMarks) and
// direct TCP connections (used by PVM).
//
// The model is a LogP-style cost model layered on the sim engine:
//
//   - the sender's clock advances by SendOverhead plus the transmit
//     serialization time (bytes at the link bandwidth) per fragment;
//   - the message arrives Latency after it has been fully transmitted;
//   - the receiver's clock advances by RecvOverhead plus a per-byte copy
//     cost when it consumes the message.
//
// Datagram (UDP) endpoints fragment payloads larger than the MTU and count
// every fragment as a wire message, reproducing the accounting the paper
// uses for TreadMarks ("total number of UDP messages and total amount of
// data").  Stream (TCP) endpoints count one message per user send with no
// header bytes, matching the paper's user-level accounting for PVM.
//
// # Inbox layout
//
// Each endpoint's inbox is indexed by (from, tag): queued messages live in
// per-pair buckets kept in (Arrival, seq) order, so an exact-filter receive
// peeks one bucket head and a wildcard receive scans the heads of the
// non-empty buckets only — never the full inbox, and never the buckets a
// busy service endpoint has accumulated from every sender and tag it has
// ever heard from.  The non-empty buckets are kept in an unordered list:
// a bucket joins it when a delivery fills it and leaves (swap-remove) when
// its last message is consumed.  Consuming a message pops a bucket head in
// O(1) instead of splicing a flat queue.  Selection semantics are
// unchanged: among matching messages, the one with the earliest arrival
// wins, ties broken by global send order (seq) — a total order, so the
// list's order never shows.
//
// # Structured messages
//
// Send ships bytes; SendObj ships a structured object with a
// caller-declared modeled wire size.  Timing, fragmentation and
// accounting are computed from that size exactly as they would be for an
// equal-length payload, but nothing is serialized — the receiver shares
// the object with the sender and must treat it as immutable.  Protocols
// whose message volume dominates host time (TreadMarks diff traffic) use
// this path.  TreadMarks declares each message's size and defines its
// byte encoding with one field walk per message type, so the two cannot
// disagree.
//
// # Message recycling
//
// Message structs are pooled: a receiver that has fully extracted a
// message's Payload/Obj hands the struct back with Endpoint.Free, and
// the next send reuses it — in steady state a send allocates nothing.
// The engine runs one proc at a time, so the pool, the inboxes and the
// statistics are plain fields with no locking.
//
// # Fault injection
//
// Config.Faults arms a deterministic fault layer — seeded per-message
// loss, duplication, reordering, latency jitter, timed partitions and
// per-node slowdown; see FaultConfig in fault.go for the determinism
// and accounting contracts.  Datagram endpoints expose raw faults to
// their users, who recover with their own sequence numbers and
// timeout/retransmit (built from RecvDeadline and SendObjRetrans);
// stream endpoints emulate TCP's ARQ below the user, so stream sends
// are delayed by recovery but never lost, duplicated or reordered.
// With the zero FaultConfig the fault path is skipped entirely and all
// modeled results are byte-identical to a fault-free build.
package vnet

import (
	"fmt"

	"repro/internal/sim"
)

// Config holds the network cost model.
type Config struct {
	SendOverhead sim.Time // per-fragment CPU cost at the sender
	RecvOverhead sim.Time // per-fragment CPU cost at the receiver
	Latency      sim.Time // wire latency after full transmission
	BytesPerSec  int64    // link bandwidth
	RecvPerByte  sim.Time // per-byte copy cost at the receiver
	MTU          int      // datagram fragmentation threshold (payload bytes)
	HeaderBytes  int      // per-fragment wire header (datagram endpoints)

	// Same-node delivery (e.g. a process messaging its own protocol
	// daemon) goes through loopback: cheap, and never counted as wire
	// traffic.
	LocalOverhead sim.Time
	LocalDelay    sim.Time

	// Faults configures deterministic fault injection (see fault.go).
	// The zero value disables it.
	Faults FaultConfig
}

// FDDI returns the default cost model: 100 Mbit/s FDDI with early-1990s
// kernel UDP/TCP stacks.  A minimal one-way message costs roughly 300 µs
// and a 4 KB page transfer roughly 700 µs, consistent with the ~1-2 ms
// page-fault round trips reported for TreadMarks on this class of hardware.
func FDDI() Config {
	return Config{
		SendOverhead: 120 * sim.Microsecond,
		RecvOverhead: 120 * sim.Microsecond,
		Latency:      60 * sim.Microsecond,
		BytesPerSec:  100 * 1000 * 1000 / 8, // 100 Mbit/s
		RecvPerByte:  8 * sim.Nanosecond,
		MTU:          16 * 1024,
		HeaderBytes:  40, // IP + UDP + protocol header

		LocalOverhead: 15 * sim.Microsecond,
		LocalDelay:    5 * sim.Microsecond,
	}
}

// Ethernet10 returns a slower-link cost model: shared 10 Mbit/s Ethernet
// with the same kernel stacks.  Per-message software overheads are
// unchanged; serialization is ten times slower and the datagram MTU drops
// to the Ethernet frame payload, so page-size transfers fragment.  Used
// by the link-bandwidth sensitivity scenarios — the paper's FDDI numbers
// are the Config returned by FDDI.
func Ethernet10() Config {
	c := FDDI()
	c.BytesPerSec = 10 * 1000 * 1000 / 8 // 10 Mbit/s
	c.MTU = 1500
	return c
}

// transmit returns the serialization time for n bytes.  Pointer receiver:
// Config (with its embedded FaultConfig) is ~200 bytes, and the send path
// calls this per fragment batch.
func (c *Config) transmit(n int) sim.Time {
	if c.BytesPerSec <= 0 {
		return 0
	}
	return sim.Time(int64(n) * int64(sim.Second) / c.BytesPerSec)
}

// Message is a delivered payload plus metadata.  A message carries either
// serialized bytes (Payload) or a structured object (Obj) sent through
// SendObj; in the latter case the wire size is modeled from the size the
// sender declared.  Receivers of an Obj share it with the sender and must
// treat it as immutable.  A message lands on the endpoint it was sent to,
// so it does not name its destination.
type Message struct {
	From    int // sender's logical endpoint id (its node unless NewEndpointID)
	Tag     int
	Payload []byte
	Obj     any
	Arrival sim.Time
	size    int // modeled payload bytes (== len(Payload) when byte-carried)
	seq     uint64
	local   bool // loopback delivery: cheap receive, no wire accounting
}

// Stats counts traffic through one accounting domain.  Messages/Bytes
// are the paper's columns: delivered useful traffic (datagram first
// transmissions, stream user-level sends).  Fault injection accounts
// separately — Dropped counts wire transmissions the fault layer
// killed, Retrans counts duplicated and retransmitted ones — so the
// delivered columns never silently absorb recovery traffic.
type Stats struct {
	Messages int64
	Bytes    int64
	Dropped  int64 // transmissions killed by fault injection
	Retrans  int64 // duplicated or retransmitted transmissions
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Messages += other.Messages
	s.Bytes += other.Bytes
	s.Dropped += other.Dropped
	s.Retrans += other.Retrans
}

// Kilobytes reports Bytes in units of 1000 bytes (the paper's "Kilobytes").
func (s Stats) Kilobytes() float64 { return float64(s.Bytes) / 1000 }

// Network is a cluster interconnect shared by a set of endpoints.
type Network struct {
	cfg   Config
	seq   uint64
	stats Stats // wire-level totals across all endpoints

	// Fault layer state, derived once in New: faultsOn short-circuits the
	// fault path in xmit, rto is the base timeout of the stream ARQ,
	// derived from the cost model.
	faultsOn bool
	rto      sim.Time

	// pool recycles Message structs between xmit and Free.
	pool []*Message
}

// msgChunk is the pool refill granularity: structs are carved from
// chunk-sized arrays so a burst of sends that outruns Free costs one
// allocation per chunk instead of one per message.
const msgChunk = 64

// alloc returns a Message struct, recycling freed ones.  Callers
// overwrite every field with a composite assignment (*m = Message{...}),
// so recycled structs are handed back without an extra zeroing pass.
func (n *Network) alloc() *Message {
	k := len(n.pool)
	if k == 0 {
		chunk := make([]Message, msgChunk)
		for i := range chunk {
			n.pool = append(n.pool, &chunk[i])
		}
		k = msgChunk
	}
	m := n.pool[k-1]
	n.pool[k-1] = nil
	n.pool = n.pool[:k-1]
	return m
}

// New creates a network with the given cost model.
func New(cfg Config) *Network {
	n := &Network{cfg: cfg}
	n.faultsOn = cfg.Faults.Enabled()
	if n.faultsOn {
		// Stream-ARQ base timeout: 4x a minimal round trip, floored at
		// 2 ms (a kernel-granularity TCP timer of the era).
		rtt := 2 * (cfg.SendOverhead + cfg.Latency + cfg.RecvOverhead)
		n.rto = max(4*rtt, 2*sim.Millisecond)
	}
	return n
}

// Config returns the network's cost model.
func (n *Network) Config() Config { return n.cfg }

// WireStats returns wire-level totals (all endpoints, fragments counted).
func (n *Network) WireStats() Stats { return n.stats }

// bucket queues the messages of one (from, tag) pair in (Arrival, seq)
// order.  Senders to one pair emit almost always in arrival order (their
// clocks only move forward), so insertion is an append with a rare
// tail-walk; consumption pops the head.
type bucket struct {
	from, tag int
	msgs      []*Message
	head      int
	live      int // position in Endpoint.live while non-empty
}

func (b *bucket) empty() bool { return b.head == len(b.msgs) }

func (b *bucket) peek() *Message { return b.msgs[b.head] }

func (b *bucket) pop() *Message {
	m := b.msgs[b.head]
	b.msgs[b.head] = nil
	b.head++
	if b.head == len(b.msgs) {
		b.msgs = b.msgs[:0]
		b.head = 0
	} else if b.head >= 32 && b.head*2 >= len(b.msgs) {
		// Reclaim the consumed prefix once it dominates the backing array.
		n := copy(b.msgs, b.msgs[b.head:])
		for i := n; i < len(b.msgs); i++ {
			b.msgs[i] = nil
		}
		b.msgs = b.msgs[:n]
		b.head = 0
	}
	return m
}

func (b *bucket) put(m *Message) {
	b.msgs = append(b.msgs, m)
	// Restore (Arrival, seq) order if the new message arrives before the
	// previous tail (possible when two sender endpoints share a node id but
	// run at different clocks).  seq is globally increasing, so among equal
	// arrivals the existing message stays first.
	for i := len(b.msgs) - 1; i > b.head && b.msgs[i-1].Arrival > m.Arrival; i-- {
		b.msgs[i] = b.msgs[i-1]
		b.msgs[i-1] = m
	}
}

// Endpoint is one node's attachment point.  An endpoint is single-owner:
// exactly one sim proc consumes from it (others may send to it).
type Endpoint struct {
	net      *Network
	node     int
	id       int  // logical id carried in Message.From (== node unless NewEndpointID)
	datagram bool // true: UDP accounting (fragments, headers)
	stats    Stats

	// arqLast tracks, per destination endpoint, the arrival time of this
	// endpoint's most recent stream send there: the emulated TCP ARQ
	// delivers in order, so a later send can never arrive before an
	// earlier one even if its own loss draws resolve faster.  Allocated
	// lazily.
	arqLast map[*Endpoint]sim.Time

	// Inbox index: one bucket per (from, tag) pair ever seen.  index is
	// the exact-match lookup; live holds the non-empty buckets, the scan
	// list for wildcard filters.
	index map[[2]int]*bucket
	live  []*bucket

	// Scheduler integration: the owner blocks in Recv against wake, and
	// every Send into this inbox notifies it, so only this endpoint's
	// waiter is re-polled when a message arrives.  The condition closure
	// is allocated once and parameterized through wFrom/wTag; wArmed marks
	// the filter live — it is set for the duration of a Recv and cleared
	// when the message is consumed, so a stale filter from a finished Recv
	// can never satisfy the wake predicate.
	wake        sim.Source
	wFrom, wTag int
	wArmed      bool
	wDeadline   sim.Time // RecvDeadline's timeout instant
	wHasDL      bool     // a deadline is armed alongside the filter
	wCond       sim.Cond
	wWhat       func() string
}

// NewEndpoint attaches node to the network.  datagram selects UDP
// accounting (fragmentation, per-fragment headers); otherwise the endpoint
// behaves like a direct TCP connection (one message per send).  The
// endpoint's logical id equals its node.
func (n *Network) NewEndpoint(node int, datagram bool) *Endpoint {
	return n.NewEndpointID(node, node, datagram)
}

// NewEndpointID attaches an endpoint with a logical id distinct from its
// node: Message.From carries id, while node still governs loopback
// detection, cost charging, slowdown and partitions.  Several endpoints
// may share a node (co-located processes) as long as their ids differ.
func (n *Network) NewEndpointID(node, id int, datagram bool) *Endpoint {
	e := &Endpoint{net: n, node: node, id: id, datagram: datagram, index: map[[2]int]*bucket{}}
	// The inbox satisfies sim's stable-source contract: the endpoint is
	// single-consumer, so only the blocked owner can remove the message
	// that satisfied its receive condition, other procs' deliveries only
	// add candidates (the wake time — min of earliest matching arrival
	// and the optional deadline — can only move earlier), and causality
	// keeps new arrivals at or after the instant the wake-up committed.
	// Stability lets the engine commit same-instant wakeups through its
	// run queue, re-verifying the condition at the receiver's turn.
	e.wake.Stable = true
	e.wCond = func() (sim.Time, bool) {
		if !e.wArmed {
			return 0, false
		}
		_, m := e.peek(e.wFrom, e.wTag)
		if m == nil {
			if e.wHasDL {
				return e.wDeadline, true
			}
			return 0, false
		}
		if e.wHasDL && e.wDeadline < m.Arrival {
			return e.wDeadline, true
		}
		return m.Arrival, true
	}
	e.wWhat = func() string {
		return fmt.Sprintf("recv(node=%d from=%d tag=%d)", e.node, e.wFrom, e.wTag)
	}
	return e
}

// Stats returns the endpoint's accounting totals (its sends only).
func (e *Endpoint) Stats() Stats { return e.stats }

// Send transmits payload to dst with the given tag, charging the sender's
// clock and scheduling arrival.  The payload is not copied; callers must
// not mutate it after sending.  Returns the number of wire messages.
func (e *Endpoint) Send(ctx *sim.Ctx, dst *Endpoint, tag int, payload []byte) int {
	return e.xmit(ctx, dst, tag, payload, nil, len(payload), false)
}

// SendObj transmits a structured message of the given modeled wire size
// without serializing it: timing, fragmentation and accounting are
// computed exactly as for a size-byte payload, but the receiver gets obj
// itself.  The caller owns the proof that size equals the length its wire
// encoding would have, and both sides must treat obj (and everything
// reachable from it) as immutable once sent.
func (e *Endpoint) SendObj(ctx *sim.Ctx, dst *Endpoint, tag int, obj any, size int) int {
	return e.xmit(ctx, dst, tag, nil, obj, size, false)
}

// SendObjRetrans is SendObj for a protocol retransmission: identical
// timing, fragmentation and fault exposure, but the wire traffic is
// accounted under Stats.Retrans instead of Messages/Bytes, keeping the
// paper's delivered-traffic columns free of recovery overhead.
func (e *Endpoint) SendObjRetrans(ctx *sim.Ctx, dst *Endpoint, tag int, obj any, size int) int {
	return e.xmit(ctx, dst, tag, nil, obj, size, true)
}

func (e *Endpoint) xmit(ctx *sim.Ctx, dst *Endpoint, tag int, payload []byte, obj any, size int, retrans bool) int {
	if dst == nil {
		panic("vnet: send to nil endpoint")
	}
	cfg := &e.net.cfg
	fc := &cfg.Faults
	if dst.node == e.node {
		// Loopback: a process talking to another process (or daemon) on
		// its own node.  No wire traffic, no accounting, no faults.
		local := cfg.LocalOverhead
		if e.net.faultsOn {
			local = scaleTime(local, fc.slow(e.node))
		}
		ctx.Compute(local)
		e.net.seq++
		m := e.net.alloc()
		*m = Message{From: e.id, Tag: tag, Payload: payload, Obj: obj,
			Arrival: ctx.Now() + cfg.LocalDelay, size: size, seq: e.net.seq, local: true}
		dst.deliver(m)
		return 1
	}
	frags := 1
	if e.datagram && cfg.MTU > 0 && size > cfg.MTU {
		frags = (size + cfg.MTU - 1) / cfg.MTU
	}
	// Charge the sender: per-fragment overhead plus serialization.
	wireBytes := int64(size)
	if e.datagram {
		wireBytes += int64(frags * cfg.HeaderBytes)
	}
	sendCost := sim.Time(frags)*cfg.SendOverhead + cfg.transmit(int(wireBytes))
	if e.net.faultsOn {
		sendCost = scaleTime(sendCost, fc.slow(e.node))
	}
	ctx.Compute(sendCost)
	arrival := ctx.Now() + cfg.Latency

	e.net.seq++
	seq := e.net.seq

	// Wire accounting units: datagram endpoints count fragments and
	// header bytes; stream endpoints count one user-level send.
	wn, wb := int64(1), int64(size)
	if e.datagram {
		wn = int64(frags)
		wb = wireBytes
	}

	// Fault layer.  Each decision hashes (seed, seq, kind), so the
	// outcome is independent of job scheduling and of every other message.
	delivered := true
	if e.net.faultsOn {
		if e.datagram {
			if fc.Jitter > 0 {
				arrival += sim.Time(fc.draw(seq, kJitter) * float64(fc.Jitter))
			}
			if fc.Reorder > 0 && fc.draw(seq, kReorder) < fc.Reorder {
				d := fc.ReorderDelay
				if d == 0 {
					d = 4 * cfg.Latency
				}
				arrival += d
			}
			if fc.severed(e.node, dst.node, ctx.Now()) ||
				(fc.Loss > 0 && fc.draw(seq, kLoss) < fc.Loss) {
				delivered = false
			}
			if delivered && fc.Dup > 0 && fc.draw(seq, kDup) < fc.Dup {
				// Duplicate delivery: a second copy a short, seeded delay
				// after the first, with its own seq for tie-breaking.
				dupArrival := arrival + 1 +
					sim.Time(fc.draw(seq, kDupDelay)*float64(cfg.Latency))
				e.net.seq++
				d := e.net.alloc()
				*d = Message{From: e.id, Tag: tag, Payload: payload, Obj: obj,
					Arrival: dupArrival, size: size, seq: e.net.seq}
				dst.deliver(d)
				e.stats.Retrans += wn
				e.net.stats.Retrans += wn
			}
		} else {
			arrival = e.streamArrival(ctx, dst, seq, arrival)
		}
	}

	if delivered {
		m := e.net.alloc()
		*m = Message{From: e.id, Tag: tag, Payload: payload, Obj: obj,
			Arrival: arrival, size: size, seq: seq}
		dst.deliver(m)
	}

	// Accounting: delivered first transmissions land in Messages/Bytes,
	// killed ones in Dropped, protocol retransmissions in Retrans (and
	// also Dropped when killed).  The columns are disjoint.
	switch {
	case !delivered:
		e.stats.Dropped += wn
		e.net.stats.Dropped += wn
		if retrans {
			e.stats.Retrans += wn
			e.net.stats.Retrans += wn
		}
	case retrans:
		e.stats.Retrans += wn
		e.net.stats.Retrans += wn
	default:
		e.stats.Messages += wn
		e.stats.Bytes += wb
		e.net.stats.Messages += wn
		e.net.stats.Bytes += wb
	}
	return frags
}

// streamArrival emulates a TCP-like ARQ for one stream send: loss and
// partition draws kill individual attempts, each retry backs off with a
// doubling timeout (capped at 64x the base RTO), and delivery is
// guaranteed within 64 attempts.  Deliveries on one directed link stay in
// send order (TCP is a byte stream), so a send never arrives before its
// predecessor.  The user sees only added delay — never loss, duplication
// or reordering.
func (e *Endpoint) streamArrival(ctx *sim.Ctx, dst *Endpoint, seq uint64, arrival sim.Time) sim.Time {
	cfg := &e.net.cfg
	fc := &cfg.Faults
	sent := ctx.Now()
	for attempt := uint64(0); attempt < 64; attempt++ {
		lost := fc.severed(e.node, dst.node, sent) ||
			(fc.Loss > 0 && fc.draw(seq, kStream+attempt) < fc.Loss)
		if !lost {
			arrival = sent + cfg.Latency
			break
		}
		e.stats.Dropped++
		e.net.stats.Dropped++
		shift := attempt
		if shift > 6 {
			shift = 6
		}
		sent += e.net.rto << shift
		e.stats.Retrans++
		e.net.stats.Retrans++
		arrival = sent + cfg.Latency // 64-attempt delivery guard
	}
	if fc.Jitter > 0 {
		arrival += sim.Time(fc.draw(seq, kJitter) * float64(fc.Jitter))
	}
	// In-order clamp per directed link.
	if e.arqLast == nil {
		e.arqLast = map[*Endpoint]sim.Time{}
	}
	if last := e.arqLast[dst]; arrival < last {
		arrival = last
	}
	e.arqLast[dst] = arrival
	return arrival
}

// deliver files m into its (from, tag) bucket and wakes the endpoint's
// waiter, if any.
func (e *Endpoint) deliver(m *Message) {
	key := [2]int{m.From, m.Tag}
	b := e.index[key]
	if b == nil {
		b = &bucket{from: m.From, tag: m.Tag}
		e.index[key] = b
	}
	if b.empty() {
		b.live = len(e.live)
		e.live = append(e.live, b)
	}
	b.put(m)
	e.wake.Notify()
}

// peek returns the earliest message matching (from, tag) and the bucket
// holding it, without consuming.  Negative from/tag are wildcards.  Exact
// filters cost one map lookup; wildcard filters scan the heads of the
// non-empty buckets only.
func (e *Endpoint) peek(from, tag int) (*bucket, *Message) {
	if from >= 0 && tag >= 0 {
		b := e.index[[2]int{from, tag}]
		if b == nil || b.empty() {
			return nil, nil
		}
		return b, b.peek()
	}
	var bb *bucket
	var best *Message
	for _, b := range e.live {
		if (from >= 0 && b.from != from) || (tag >= 0 && b.tag != tag) {
			continue
		}
		m := b.peek()
		if best == nil || m.Arrival < best.Arrival ||
			(m.Arrival == best.Arrival && m.seq < best.seq) {
			bb, best = b, m
		}
	}
	return bb, best
}

// take consumes the head of b, dropping b from the live list when that
// empties it.
func (e *Endpoint) take(b *bucket) *Message {
	m := b.pop()
	if b.empty() {
		// The index keeps every bucket alive, so the vacated tail slot
		// needs no clearing.
		last := e.live[len(e.live)-1]
		e.live[b.live], last.live = last, b.live
		e.live = e.live[:len(e.live)-1]
	}
	return m
}

// Recv blocks until a message matching (from, tag) arrives, consumes it,
// and charges the receiver's clock.  Negative from/tag are wildcards.
//
// The returned message is owned by the caller.  Once its Payload/Obj has
// been fully extracted, the caller should hand the struct back with Free
// — in the same step that received it — so the next send reuses it
// instead of allocating; a message never freed is merely garbage.
func (e *Endpoint) Recv(ctx *sim.Ctx, from, tag int) *Message {
	m := e.recv(ctx, from, tag, false, 0)
	if m == nil {
		panic("vnet: woke with no matching message")
	}
	return m
}

// RecvDeadline is Recv with a timeout: it blocks until a matching message
// arrives or the caller's clock reaches deadline, whichever is first, and
// returns nil on timeout.  The timer needs no engine support — the wake
// condition is always satisfiable (min of the earliest matching arrival
// and the deadline), and deadlines only ever resolve the condition
// earlier, preserving the engine's monotonic-wake invariant.  Protocol
// retransmit loops are built from this plus SendObjRetrans.
func (e *Endpoint) RecvDeadline(ctx *sim.Ctx, from, tag int, deadline sim.Time) *Message {
	return e.recv(ctx, from, tag, true, deadline)
}

// recv arms the wake filter, blocks until it resolves, and consumes the
// matching message, or returns nil when the deadline (if hasDL) came
// first.
func (e *Endpoint) recv(ctx *sim.Ctx, from, tag int, hasDL bool, deadline sim.Time) *Message {
	if e.wake.HasWaiter() {
		panic(fmt.Sprintf("vnet: concurrent Recv on endpoint %d (endpoints are single-consumer)", e.id))
	}
	e.wFrom, e.wTag, e.wArmed = from, tag, true
	e.wDeadline, e.wHasDL = deadline, hasDL
	ctx.WaitOnLazy(&e.wake, e.wWhat, e.wCond)
	// Disarm the wake filter first so it is never evaluated against this
	// receive's (now dead) parameters.
	e.wArmed, e.wHasDL = false, false
	b, m := e.peek(from, tag)
	if m == nil || m.Arrival > ctx.Now() {
		return nil
	}
	e.take(b)
	e.chargeRecv(ctx, m)
	return m
}

// Free returns a consumed message struct to the network's recycling
// pool.  Contract: the caller received m from Recv/RecvDeadline on this
// endpoint, has extracted everything it needs (the Payload slice and Obj
// remain valid — only the struct is recycled), calls Free at most once,
// and does so in the step that consumed the message.  Freeing is what
// makes steady-state sends allocation-free.  ctx is the caller's proc,
// taken for symmetry with Recv; Free does not charge it.
func (e *Endpoint) Free(_ *sim.Ctx, m *Message) {
	m.Payload, m.Obj = nil, nil
	e.net.pool = append(e.net.pool, m)
}

func (e *Endpoint) chargeRecv(ctx *sim.Ctx, m *Message) {
	cfg := &e.net.cfg
	var cost sim.Time
	if m.local {
		cost = cfg.LocalOverhead
	} else {
		frags := 1
		if e.datagram && cfg.MTU > 0 && m.size > cfg.MTU {
			frags = (m.size + cfg.MTU - 1) / cfg.MTU
		}
		cost = sim.Time(frags)*cfg.RecvOverhead + sim.Time(m.size)*cfg.RecvPerByte
	}
	if e.net.faultsOn {
		cost = scaleTime(cost, cfg.Faults.slow(e.node))
	}
	ctx.Compute(cost)
}
