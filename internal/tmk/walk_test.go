package tmk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The functions below are the bodies of recordsNotCoveredBy,
// recordsLacked and minimalCover before they read timestamps as merge
// walks (one VC.Get search per component), kept verbatim as the
// references of the property tests that follow.  minimalCover's takes
// its scratch as a parameter so that it cannot share state with the
// processor's.

func referenceRecordsNotCoveredBy(p *Proc, from VC, limit VC) []*IntervalRec {
	bounded := limit.Len() != 0
	total := 0
	for _, q32 := range p.recProcs {
		q := int(q32)
		lo := int(from.Get(q))
		hi := len(p.recs[q])
		if bounded {
			if l := int(limit.Get(q)); l < hi {
				hi = l
			}
		}
		if hi > lo {
			total += hi - lo
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]*IntervalRec, 0, total)
	for _, q32 := range p.recProcs {
		q := int(q32)
		lo := int(from.Get(q))
		hi := len(p.recs[q])
		if bounded {
			if l := int(limit.Get(q)); l < hi {
				hi = l
			}
		}
		for i := lo; i < hi; i++ {
			out = append(out, p.recs[q][i])
		}
	}
	return out
}

func referenceRecordsLacked(union []*IntervalRec, vc VC, sub []*IntervalRec) []*IntervalRec {
	count := 0
	j := 0
	for _, r := range union {
		if vc.CoversInterval(r.Proc, r.Idx) {
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
	for _, r := range union {
		if vc.CoversInterval(r.Proc, r.Idx) {
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

func referenceMinimalCover(p *Proc, cs *coverScratch, missing []diffWant) []coverTarget {
	if cs.latest == nil {
		cs.latest = make([]*IntervalRec, p.sys.n)
	}
	for i := range cs.latest {
		cs.latest[i] = nil
	}
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
	// Keep the non-dominated candidates, reusing target slots (and their
	// want-list backing arrays) from previous faults.
	nt := 0
	for _, q := range cands {
		dominated := false
		for _, r := range cands {
			if r != q && cs.latest[r].VC.CoversInterval(q, cs.latest[q].Idx) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
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

// randomHistory generates the interval records of w writers in an
// n-processor system from a random synchronization history: at each of
// events steps a writer either closes an interval or merges another
// writer's timestamp (an acquire).  pSync is the chance of a merge.  The
// timestamps are transitively closed and, when merges are rare, sparse —
// the shape real runs produce.
func randomHistory(r *rand.Rand, w, n, events int, pSync float64) [][]*IntervalRec {
	vcs := make([]VC, w)
	for q := range vcs {
		vcs[q] = NewVC(n)
	}
	recs := make([][]*IntervalRec, n)
	for ; events > 0; events-- {
		q := r.Intn(w)
		if r.Float64() < pSync {
			vcs[q].Merge(vcs[r.Intn(w)])
			continue
		}
		idx := len(recs[q])
		vcs[q].SetMax(q, int32(idx+1))
		recs[q] = append(recs[q], &IntervalRec{Proc: q, Idx: idx, VC: vcs[q].Clone()})
	}
	return recs
}

// recProcsOf lists the writers with records, ascending (Proc.recProcs).
func recProcsOf(recs [][]*IntervalRec) []int32 {
	var out []int32
	for q, rs := range recs {
		if len(rs) > 0 {
			out = append(out, int32(q))
		}
	}
	return out
}

// TestRecordsNotCoveredByMatchesReferenceProperty: the merge walk over
// the active writers and both timestamps returns exactly the records the
// per-writer Get form returned, bounded and unbounded, on random sparse
// timestamps up to width 256.
func TestRecordsNotCoveredByMatchesReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nonEmpty := 0
	for iter := 0; iter < 1500; iter++ {
		n := 1 + r.Intn(256)
		recs := randomHistory(r, n, n, 1+r.Intn(4*n), 0.3*r.Float64())
		p := &Proc{recs: recs, recProcs: recProcsOf(recs)}
		from := randSparseVC(r, n, r.Intn(n+1))
		limit := VC{}
		if iter%2 == 1 {
			limit = randSparseVC(r, n, r.Intn(n+1))
		}
		got, want := p.recordsNotCoveredBy(from, limit), referenceRecordsNotCoveredBy(p, from, limit)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (n=%d, bounded=%v): %d records, reference %d", iter, n, iter%2 == 1, len(got), len(want))
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 500 {
		t.Fatalf("only %d of 1500 cases returned records", nonEmpty)
	}
}

// TestRecordsLackedMatchesReferenceProperty: the walk of a (Proc, Idx)-
// sorted union in step with the timestamp returns exactly what the Get
// form returned, with and without a subtracted set.
func TestRecordsLackedMatchesReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	nonEmpty := 0
	for iter := 0; iter < 1500; iter++ {
		n := 1 + r.Intn(256)
		recs := randomHistory(r, n, n, 1+r.Intn(4*n), 0.3*r.Float64())
		var union, sub []*IntervalRec
		for _, rs := range recs {
			for _, rec := range rs {
				if r.Intn(3) > 0 {
					union = append(union, rec)
					if r.Intn(4) == 0 {
						sub = append(sub, rec)
					}
				}
			}
		}
		if iter%2 == 0 {
			sub = nil
		}
		vc := randSparseVC(r, n, r.Intn(n+1))
		got, want := recordsLacked(union, vc, sub), referenceRecordsLacked(union, vc, sub)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (n=%d, sub=%d): %d records, reference %d", iter, n, len(sub), len(got), len(want))
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 500 {
		t.Fatalf("only %d of 1500 cases returned records", nonEmpty)
	}
}

// TestMinimalCoverMatchesReferenceProperty: the dominance test read as
// one walk per candidate picks the same targets, with the same want
// lists in the same order, as the C² Get form, over random transitively
// closed histories up to width 256 and missing sets in any interleaving
// that keeps each writer's notices in interval order.
func TestMinimalCoverMatchesReferenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pruned := 0
	for iter := 0; iter < 600; iter++ {
		n := 2 + r.Intn(255)
		w := 1 + r.Intn(n)
		recs := randomHistory(r, w, n, 1+r.Intn(6*w), r.Float64())
		var missing []diffWant
		for q := 0; q < w; q++ {
			for _, rec := range recs[q] {
				if r.Intn(3) == 0 {
					missing = append(missing, diffWant{Proc: q, Idx: rec.Idx})
				}
			}
		}
		if len(missing) == 0 {
			continue
		}
		// Interleave writers, keeping each writer's idxs ascending.
		r.Shuffle(len(missing), func(i, j int) { missing[i], missing[j] = missing[j], missing[i] })
		byWriter := map[int][]int{}
		for _, m := range missing {
			byWriter[m.Proc] = append(byWriter[m.Proc], m.Idx)
		}
		for _, idxs := range byWriter {
			sort.Ints(idxs)
		}
		for i, m := range missing {
			missing[i].Idx, byWriter[m.Proc] = byWriter[m.Proc][0], byWriter[m.Proc][1:]
		}

		p := &Proc{sys: &System{n: n}, recs: recs}
		got := p.minimalCover(missing)
		want := referenceMinimalCover(p, &coverScratch{}, missing)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d targets, reference %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i].proc != want[i].proc || !reflect.DeepEqual(got[i].wants, want[i].wants) {
				t.Fatalf("iter %d target %d: (%d, %v), reference (%d, %v)",
					iter, i, got[i].proc, got[i].wants, want[i].proc, want[i].wants)
			}
		}
		if len(got) < len(byWriter) {
			pruned++
		}
	}
	if pruned < 50 {
		t.Fatalf("only %d covers dropped a dominated writer", pruned)
	}
}
