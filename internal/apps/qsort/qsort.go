// Package qsort implements the parallel quicksort of the paper (§3.7):
// a work queue holds descriptors of unsorted subarrays; workers pop a
// subarray, partition it (pushing the pieces back on the queue), and
// bubble-sort it once it is below a threshold.
//
// In the TreadMarks version the integer list and the work queue are
// shared, with queue access protected by a lock; subarrays and the queue
// migrate between processors, producing the diff requests, false sharing
// at subarray boundaries, and diff accumulation the paper reports.  In
// the PVM version a master process owns the list and the queue; slaves
// receive subarray data, partition or sort it, and ship it back.
package qsort

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Config describes one sorting problem.
type Config struct {
	N         int // number of integers (the paper: 256K)
	Threshold int // bubble-sort threshold (the paper: 1024)
	Seed      uint64

	PartCost   sim.Time // per element partitioned
	BubbleCost sim.Time // per bubble-sort comparison
}

// Paper returns the paper-scale problem.
func Paper() Config {
	return Config{N: 256 * 1024, Threshold: 1024, Seed: 141421,
		PartCost: 250 * sim.Nanosecond, BubbleCost: 150 * sim.Nanosecond}
}

// input generates the deterministic unsorted list.
func (c Config) input() []int32 {
	v := make([]int32, c.N)
	for i := range v {
		v[i] = int32(sim.SplitMix64(c.Seed+uint64(i)) & 0x7FFFFFFF)
	}
	return v
}

// Output is the verification checksum over the sorted array.
type Output struct {
	Checksum int64
	Sorted   bool
}

// Check compares outputs exactly.
func (o Output) Check(other Output) error {
	if o != other {
		return fmt.Errorf("qsort: output %+v vs %+v", o, other)
	}
	return nil
}

func checksum(v []int32) Output {
	var s int64
	sorted := true
	for i, x := range v {
		s += int64(x) * int64(i%1000+1)
		if i > 0 && v[i-1] > x {
			sorted = false
		}
	}
	return Output{Checksum: s, Sorted: sorted}
}

// partition performs a deterministic Hoare-style partition with a
// median-of-three pivot, returning the split point (elements [0,m) <=
// pivot <= elements [m, len)); m is always in (0, len).
func partition(v []int32) int {
	n := len(v)
	a, b, c := v[0], v[n/2], v[n-1]
	pivot := a
	if (a <= b && b <= c) || (c <= b && b <= a) {
		pivot = b
	} else if (b <= a && a <= c) || (c <= a && a <= b) {
		pivot = a
	} else {
		pivot = c
	}
	i, j := 0, n-1
	for {
		for v[i] < pivot {
			i++
		}
		for v[j] > pivot {
			j--
		}
		if i >= j {
			break
		}
		v[i], v[j] = v[j], v[i]
		i++
		j--
	}
	m := j + 1
	if m <= 0 {
		m = 1
	}
	if m >= n {
		m = n - 1
	}
	return m
}

// bubble sorts v in place and returns the comparison count of a bubble
// sort, which is modeled time: a pass over n elements is n-1 comparisons,
// each pass drops the last element, and the sort stops after the first
// pass that swaps nothing.
//
// The count is found without making the passes.  Each pass moves every
// element that has a larger one to its left one place left, so the passes
// that swap number P, the most elements greater than v[i] to the left of
// any v[i] (Knuth, TAOCP vol. 3, §5.2.2); the sort makes one more pass
// that swaps nothing, and at most n-1 passes in all.  P comes from a
// Fenwick tree over the elements' ranks, and slices.Sort leaves the slice
// as the passes would.  This took BenchmarkBubble (one paper-scale leaf
// of 1024 integers) from 423-463 to 142-146 µs (2 vCPUs, go1.24).
func bubble(v []int32) int64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	sorted := slices.Clone(v)
	slices.Sort(sorted)
	// An element's rank is one more than the number of elements below it,
	// so equal elements share one, and tree[r] counts, Fenwick-style, the
	// elements seen so far whose rank falls in r's range.
	tree := make([]int, n+1)
	p := 0
	for i, x := range v {
		rank, _ := slices.BinarySearch(sorted, x)
		rank++
		le := 0
		for r := rank; r > 0; r &= r - 1 {
			le += tree[r]
		}
		p = max(p, i-le)
		for r := rank; r <= n; r += r & -r {
			tree[r]++
		}
	}
	copy(v, sorted)
	passes := int64(min(p+1, n-1))
	return passes*int64(n-1) - passes*(passes-1)/2
}

// leafSink collects sorted leaves out of band for verification.  The
// assembled output is keyed by offset, so insertion order never matters.
type leafSink struct {
	leaves map[int][]int32
}

func newSink() *leafSink { return &leafSink{leaves: map[int][]int32{}} }

func (s *leafSink) add(lo int, vals []int32) {
	s.leaves[lo] = append([]int32(nil), vals...)
}

func (s *leafSink) assemble(n int) Output {
	offs := make([]int, 0, len(s.leaves))
	for lo := range s.leaves {
		offs = append(offs, lo)
	}
	sort.Ints(offs)
	v := make([]int32, 0, n)
	for _, lo := range offs {
		if lo != len(v) {
			return Output{} // gap or overlap: verification fails loudly
		}
		v = append(v, s.leaves[lo]...)
	}
	if len(v) != n {
		return Output{}
	}
	return checksum(v)
}

// Shared layout for the TreadMarks version.
const (
	lockQueue = 0
	maxQueue  = 8192
)

// PVM message tags.
const (
	tagWorkReq = 1
	tagWork    = 2 // kind, lo, data (kind 0 = done)
	tagLeaf    = 3 // sorted leaf: lo, data
	tagSplit   = 4 // partitioned subarray: lo, m, data
)
