package tmk

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

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
			p.handleAcqReq(ctx, obj.(*acqMsg))
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
			p.handleInval(ctx, obj.(*invMsg))
		default:
			panic(fmt.Sprintf("tmk: service got unexpected tag %d", tag))
		}
	}
}

// handleDiffReq returns the requested diffs, which by the protocol's
// dominance argument this processor must hold (paper §2.2.2: a processor
// that modified a page in an interval holds the diffs of all intervals
// that precede it).
func (p *Proc) handleDiffReq(ctx *sim.Ctx, req *diffReqMsg) {
	if !p.diffs.admit(ctx, p.srv, req.Requester, req.Seq) {
		return
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
	p.diffs.reply(ctx, p.srv, req.Requester, cachedReply{seq: req.Seq,
		to: p.sys.procs[req.Requester].ep, tag: tagDiffResp, msg: resp})
}

// ---------------------------------------------------------------------
// Access faults.

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
			seq := p.nextRPC()
			if seq > 0 {
				wants = append([]diffWant(nil), t.wants...)
			}
			reqs[i] = diffReqMsg{Page: pid, Requester: p.id, Seq: seq, Wants: wants}
			p.ep.SendObj(p.app, p.sys.procs[t.proc].srv, tagDiffReq, &reqs[i], wireSize(&reqs[i]))
			p.DiffRequests++
		}
		for i := range targets {
			tgt := p.sys.procs[targets[i].proc]
			resp := p.rpcRecv(p.app, tgt.id, tagDiffResp, &reqs[i], tgt.srv, tagDiffReq).(*diffRespMsg)
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
