package tmk

import (
	"fmt"

	"repro/internal/sim"
)

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

// treeBarrState is one internal node's (or the root's) aggregation
// state for the combining-tree barrier.  Slot 0 of arr holds the
// node's own arrival (sent loopback from its application thread);
// slot s >= 1 holds the arrival of child k*id+s.  The node's union
// scratch doubles as its upward Records batch and, at redistribution
// time, as the subtree-exclusion set: records the subtree announced
// itself never ride back down to it.
type treeBarrState struct {
	id  int // barrier in progress (-1: idle)
	got int // arrivals so far; need == len(arr)
	arr []*treeArrMsg

	mergeScratch
	down []*IntervalRec // internal nodes: merged departure set
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
		slot = m.From - p.sys.barrier.radix*p.id
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
	ts.union = ts.mergeRecordBatches(ts.union[:0])
	if p.id == 0 {
		p.treeRedistribute(ctx, agg, ts.union)
		return
	}
	up := &treeArrMsg{Barrier: ts.id, From: p.id, VC: agg, MinVC: min, Records: ts.union}
	parent := p.sys.procs[(p.id-1)/p.sys.barrier.radix]
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
	ts.batches = append(ts.batches[:0], m.Records, ts.union)
	ts.down = ts.mergeRecordBatches(ts.down[:0])
	p.treeRedistribute(ctx, m.VC, ts.down)
}

// treeRedistribute sends the departure to every child subtree and to
// this node's own application thread, then resets the aggregation
// state.  needed is the set of records any member of this subtree might
// lack; each edge filters it by the target's minimum timestamp and
// subtracts what the target announced itself.
func (p *Proc) treeRedistribute(ctx *sim.Ctx, depVC VC, needed []*IntervalRec) {
	ts := p.tree
	k := p.sys.barrier.radix
	for s := 1; s < len(ts.arr); s++ {
		a := ts.arr[s]
		c := k*p.id + s
		dep := &barrMsg{Barrier: ts.id, From: p.id, VC: depVC,
			Records: recordsLacked(needed, a.MinVC, a.Records)}
		if p.sys.procs[c].tree != nil { // internal child: its service daemon merges and relays on
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
