package tmk

import (
	"fmt"

	"repro/internal/sim"
)

// ---------------------------------------------------------------------
// Barriers (a central manager, processor 0 by default; 2*(n-1) messages).

// barrierKind is the barrier protocol: the paper's central manager or the
// combining tree (tree.go).
type barrierKind uint8

const (
	barrierCentral barrierKind = iota
	barrierTree
)

// barrierVariant is the barrier protocol NewSystem chose from
// Config.TreeBarrier and Config.SpreadBarrierMgr, with its parameter.
type barrierVariant struct {
	kind  barrierKind
	mgrs  int // central: barrier id's manager is id mod mgrs (1: processor 0; n: SpreadBarrierMgr)
	radix int // tree: children per node
}

type barrierState struct {
	id      int
	arrived []*barrMsg
	deps    replyCache // each client's departure
	mergeScratch
}

// mergeScratch is a barrier node's record-merge scratch, reused across
// barriers: the record batches to merge, their merged union and the
// per-batch merge cursors.  The union is valid until the node's next
// merge into it.
type mergeScratch struct {
	batches [][]*IntervalRec
	union   []*IntervalRec
	heads   []int
}

// barrierMgr returns the managing processor of barrier id (central
// barrier only).
func (s *System) barrierMgr(id int) int { return id % s.barrier.mgrs }

// Barrier stalls the calling processor until all processors have arrived
// at barrier id (Tmk_barrier).  The arrival goes to the barrier manager,
// or with TreeBarrier to the aggregation point: this processor's own
// service daemon if it is an internal tree node, its parent's otherwise.
// The departure comes back from the same place.
func (p *Proc) Barrier(id int) {
	p.closeInterval()
	// The live vector is safe to share: this processor blocks until
	// departure, and every reader of the arrival timestamp runs before
	// the departure is sent.  Under faults a duplicate can outlive the
	// block, so the sequenced path clones (tree mode never runs lossy).
	recs := p.recordsNotCoveredBy(p.lastMgrVC, VC{})
	var arr rpcMsg
	dst, tag, depTag := p, tagTreeArrive, tagTreeDepart
	if b := p.sys.barrier; b.kind == barrierCentral {
		a := &barrMsg{Barrier: id, From: p.id, Seq: p.nextRPC(), VC: p.vc, Records: recs}
		if a.Seq > 0 {
			a.VC = p.arena.cloneVC(p.vc)
		}
		arr = a
		dst, tag, depTag = p.sys.procs[p.sys.barrierMgr(id)], tagBarrArrive, tagBarrDepart
	} else {
		arr = &treeArrMsg{Barrier: id, From: p.id, VC: p.vc, MinVC: p.vc, Records: recs}
		if p.tree == nil {
			dst = p.sys.procs[(p.id-1)/b.radix]
		}
	}
	p.ep.SendObj(p.app, dst.srv, tag, arr, arr.size())
	t0 := p.app.Now()
	dep := p.rpcRecv(p.app, dst.id, depTag, arr, dst.srv, tag).(*barrMsg)
	p.BarrierWait += p.app.Now() - t0
	if dep.Barrier != id {
		panic(fmt.Sprintf("tmk: proc %d got departure for barrier %d while in %d", p.id, dep.Barrier, id))
	}
	p.applyRecords(dep.Records)
	p.vc.Merge(dep.VC)
	p.lastMgrVC = dep.VC.Clone()
}

// mergeRecordBatches head-merges ms.batches into a sorted, deduplicated
// union appended to dst.  Each batch must be in (Proc, Idx) order; every
// head carrying the chosen key advances together, so a record announced
// by several batches appears once.
func (ms *mergeScratch) mergeRecordBatches(dst []*IntervalRec) []*IntervalRec {
	heads := ms.heads[:0]
	for range ms.batches {
		heads = append(heads, 0)
	}
	ms.heads = heads
	for {
		var best *IntervalRec
		for i, b := range ms.batches {
			if heads[i] == len(b) {
				continue
			}
			r := b[heads[i]]
			if best == nil || r.Proc < best.Proc || (r.Proc == best.Proc && r.Idx < best.Idx) {
				best = r
			}
		}
		if best == nil {
			return dst
		}
		dst = append(dst, best)
		for i, b := range ms.batches {
			if heads[i] < len(b) {
				if r := b[heads[i]]; r.Proc == best.Proc && r.Idx == best.Idx {
					heads[i]++
				}
			}
		}
	}
}

// handleBarrArrive runs in the barrier manager's service daemon.
func (p *Proc) handleBarrArrive(ctx *sim.Ctx, m *barrMsg) {
	bs := p.barrier
	if !bs.deps.admit(ctx, p.srv, m.From, m.Seq) {
		return
	}
	if m.Seq > 0 {
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
	bs.union = bs.mergeRecordBatches(bs.union[:0])
	// Departures: each client gets the union entries it has not seen, in
	// the union's (Proc, Idx) order.
	for _, a := range bs.arrived {
		dep := &barrMsg{Barrier: bs.id, From: p.id, Seq: a.Seq, VC: merged,
			Records: recordsLacked(bs.union, a.VC, nil)}
		bs.deps.reply(ctx, p.srv, a.From, cachedReply{seq: a.Seq,
			to: p.sys.procs[a.From].ep, tag: tagBarrDepart, msg: dep})
	}
	bs.arrived = bs.arrived[:0]
	bs.id = -1
}

// recordsLacked returns the entries of union not covered by vc, minus
// the records in sub (both union and sub are in (Proc, Idx) order; nil
// sub skips the subtraction).  vc is read in step with union.  Freshly
// allocated at exact size — the slice travels inside a departure
// message — so the filter runs twice: once to count, once to fill.
func recordsLacked(union []*IntervalRec, vc VC, sub []*IntervalRec) []*IntervalRec {
	var out []*IntervalRec
	for {
		count, j, c := 0, 0, vcCursor{v: vc}
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
			if out != nil {
				out = append(out, r)
			}
			count++
		}
		if out != nil || count == 0 {
			return out
		}
		out = make([]*IntervalRec, 0, count)
	}
}
