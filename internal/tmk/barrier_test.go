package tmk

import (
	"math/rand"
	"sort"
	"testing"
)

// TestMergeArrivalRecordsMatchesMapUnion proves the barrier manager's
// head merge equivalent to the former map-built union: for random sets of
// per-arrival record batches (each sorted by (Proc, Idx), duplicates
// shared across batches, as the protocol guarantees), the merge must
// yield exactly the deduplicated union in (Proc, Idx) order.
func TestMergeArrivalRecordsMatchesMapUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nprocs := 1 + rng.Intn(8)
		// A pool of published records: each (proc, idx) exists once and is
		// shared by reference, like real interval records.
		pool := map[[2]int]*IntervalRec{}
		rec := func(proc, idx int) *IntervalRec {
			key := [2]int{proc, idx}
			if r := pool[key]; r != nil {
				return r
			}
			r := &IntervalRec{Proc: proc, Idx: idx}
			pool[key] = r
			return r
		}
		arrived := make([][]*IntervalRec, nprocs)
		for i := range arrived {
			var batch []*IntervalRec
			for proc := 0; proc < nprocs; proc++ {
				// A contiguous idx range per writer keeps the batch
				// realistic (interval indices only grow).
				lo := rng.Intn(4)
				hi := lo + rng.Intn(4)
				if rng.Intn(3) == 0 {
					continue
				}
				for idx := lo; idx < hi; idx++ {
					batch = append(batch, rec(proc, idx))
				}
			}
			arrived[i] = batch
		}

		// Reference: the former implementation's map union plus sort.
		union := map[[2]int]*IntervalRec{}
		for _, a := range arrived {
			for _, r := range a {
				union[[2]int{r.Proc, r.Idx}] = r
			}
		}
		var want []*IntervalRec
		for _, r := range union {
			want = append(want, r)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Proc != want[j].Proc {
				return want[i].Proc < want[j].Proc
			}
			return want[i].Idx < want[j].Idx
		})

		got := (&mergeScratch{batches: arrived}).mergeRecordBatches(nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d records, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: record %d = (%d,%d), want (%d,%d)",
					trial, i, got[i].Proc, got[i].Idx, want[i].Proc, want[i].Idx)
			}
		}
	}
}
