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

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// input generates the deterministic unsorted list.
func (c Config) input() []int32 {
	v := make([]int32, c.N)
	for i := range v {
		v[i] = int32(splitmix64(c.Seed+uint64(i)) & 0x7FFFFFFF)
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

// bubble sorts v in place and returns the comparison count, which is
// modeled time: a pass over n elements is n-1 comparisons, each pass
// drops the last element, and the sort stops after the first pass that
// swaps nothing.  A pass carries its running maximum in hi and writes
// each smaller element one place down, which leaves the slice exactly as
// a pass of adjacent swaps would.
func bubble(v []int32) int64 {
	var ops int64
	for n := len(v); n > 1; n-- {
		ops += int64(n - 1)
		w := v[:n]
		hi := w[0]
		swaps := 0
		for i := 1; i < len(w); i++ {
			x := w[i]
			if hi > x {
				swaps++
			}
			w[i-1] = min(hi, x)
			hi = max(hi, x)
		}
		w[n-1] = hi
		if swaps == 0 {
			break
		}
	}
	return ops
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
