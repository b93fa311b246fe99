package tmk

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

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
		d := makeDiff(pg.twin, pg.data, &p.arena)
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
	p.broadcastInvalidation(rec)
	p.drainInvalidations()
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
