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
//     sizes (vnet.Endpoint.SendObj).  Each message's layout is one field walk in
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
// lossy (vnet.FaultConfig.Lossy) the protocol arms one at-least-once
// RPC layer (rpc.go) under every request/reply pair — lock
// acquire/grant, barrier arrive/depart, diff request/response:
//
//   - Every request carries a per-processor monotonic sequence number
//     (header-resident, see rpcMsg); replies echo it.
//   - The requester retransmits on timeout with exponential backoff,
//     derived from the network cost model: the first timeout is 4x a
//     minimal round trip (at least 4 ms), doubling up to 16x that.
//     Stale replies — duplicates whose Seq does not match the
//     outstanding request — are discarded.
//   - Each server role — lock manager, lock grantor, barrier manager,
//     diff server — keeps a reply cache: per client, the newest request
//     answered and its answer.  A request is fresh (served), a repeat of
//     that newest request (its answer is sent again as a
//     retransmission: it may have been lost), or older (dropped: the
//     client has provably moved on).
//
// Three role rules sit on top.  The manager's "answer" is its forward:
// a repeat is forwarded again to the recorded target, or re-enters the
// grantor path when that target was the manager itself.  A grant
// supersedes the grantor's earlier ones, so only its most recent
// grantee's repeat is answered.  A repeat of a request still in
// progress — an acquire queued at the grantor, an arrival the barrier
// has not answered — is dropped.
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
// centralized one, and the variants exist to measure what each
// restructuring buys at processor counts the paper never reached
// (backends tmk-tree and tmk-sc-tree, scenario sets bigp and
// placement).
//
// # Files
//
// NewSystem (system.go) reads the five variant fields of Config once and
// turns them into one value per axis: the barrier, the notices and the
// lock-manager placement.  Protocol code switches on those values, never
// on Config.
//
//   - system.go: Config and Validate, NewSystem, System and Proc, Malloc
//     and the preload behind InitF64, InitI32 and InitI64.
//   - arena.go: memArena, the allocator behind long-lived records and diffs.
//   - interval.go: interval close and the record walks (applyRecords,
//     admitRecord with causal admission, recordsNotCoveredBy).
//   - notice.go: the notice value (lazy, eager-flat or eager-relayed(k)),
//     the eager broadcast and relay, and deferred notices.
//   - lock.go: the lock manager (placement: id mod n, or processor 0)
//     and grantor, LockAcquire and LockRelease.
//   - barrier.go: the barrier value (central, manager 0 or id mod n; or
//     tree(k)), the central barrier and the record merge and filter.
//   - tree.go: the combining-tree barrier.
//   - fault.go: the service daemon, the diff store and server, and the
//     access-fault path.
//   - views.go: typed access — the scalar accessors and their two slow
//     paths (readAt, writeAt), the typed arrays over one view, the bulk
//     load and store, and the page walk they share with the preload.
//   - diff.go, vc.go, wire.go, rpc.go: diffs, vector timestamps, message
//     layouts, the at-least-once layer.
package tmk
