// Package is implements the NAS Integer Sort benchmark (paper §3.5):
// ranking a sequence of integer keys with bucket sort.  Each processor
// counts its share of the keys into a private bucket array; the private
// arrays are summed into a global array; every processor then reads the
// global counts and ranks its keys.
//
// In the TreadMarks version the global array is shared: each processor
// locks it, adds its private counts, releases, and waits at a barrier;
// after the barrier everyone reads the final counts.  Because each lock
// holder overwrites (essentially) the whole array, the acquirer receives
// the accumulated diffs of every processor it has not yet synchronized
// with — the paper's "diff accumulation" pathology, which makes the data
// sent grow like n*(n-1)*b per iteration versus PVM's 2*(n-1)*b.
//
// In the PVM version the processors form a chain: processor 0 sends its
// counts to 1, which adds and forwards, and so on; the last processor
// computes the final counts and broadcasts them.
//
// Two key ranges reproduce the paper's inputs: IS-Small (Bmax = 2^7, the
// bucket array fits in one page) and IS-Large (Bmax = 2^15, the bucket
// array spans 32 pages, so every access costs 32 diff request/response
// pairs in TreadMarks against PVM's single message).
package is

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes one Integer Sort problem.
type Config struct {
	Keys    int // number of keys (the paper: 2^20)
	Bmax    int // key range / bucket count (2^7 small, 2^15 large)
	Iters   int // ranking iterations (the paper: 10)
	Seed    uint64
	KeyCost sim.Time // per-key cost per pass (count pass + rank pass)
	BktCost sim.Time // per-bucket cost (sum/prefix passes)
}

// PaperSmall returns the IS-Small input.
func PaperSmall() Config {
	return Config{Keys: 1 << 20, Bmax: 1 << 7, Iters: 10, Seed: 31415,
		KeyCost: 500 * sim.Nanosecond, BktCost: 100 * sim.Nanosecond}
}

// PaperLarge returns the IS-Large input.  The per-key cost is higher than
// IS-Small's: random accesses into a 128 KB bucket array miss the HP-735's
// cache, while IS-Small's 512-byte array stays resident.
func PaperLarge() Config {
	return Config{Keys: 1 << 20, Bmax: 1 << 15, Iters: 10, Seed: 31415,
		KeyCost: 1600 * sim.Nanosecond, BktCost: 100 * sim.Nanosecond}
}

// key returns the i-th key, reproducible and processor-independent.
// As in NAS IS, keys follow a centered (sum-of-uniforms) distribution,
// so middle buckets are hot and the tails nearly empty.
func (c Config) key(i int) int32 {
	r := sim.SplitMix64(c.Seed + uint64(i))
	// Average four 16-bit lanes of the random word.
	s := (r & 0xFFFF) + (r >> 16 & 0xFFFF) + (r >> 32 & 0xFFFF) + (r >> 48 & 0xFFFF)
	return int32(s * uint64(c.Bmax) / (4 << 16))
}

// Output is the verification result: the final bucket counts checksum and
// a rank checksum over all keys.
type Output struct {
	BucketSum int64
	RankSum   int64
}

// Check compares outputs exactly (all-integer arithmetic).
func (o Output) Check(other Output) error {
	if o != other {
		return fmt.Errorf("is: output %+v vs %+v", o, other)
	}
	return nil
}

func span(total, nprocs, id int) (int, int) {
	return id * total / nprocs, (id + 1) * total / nprocs
}

// keys materialises keys [lo,hi) — as NAS IS keeps its keys in an array —
// so a job hashes each key once rather than once per pass per iteration.
func (c Config) keys(lo, hi int) []int32 {
	ks := make([]int32, hi-lo)
	for i := range ks {
		ks[i] = c.key(lo + i)
	}
	return ks
}

// countKeys tallies keys into a fresh bucket array.
func (c Config) countKeys(ctx *sim.Ctx, keys []int32) []int32 {
	b := make([]int32, c.Bmax)
	for _, k := range keys {
		b[k]++
	}
	ctx.Compute(sim.Time(len(keys)) * c.KeyCost)
	return b
}

// rankChunk ranks keys, which hold global indices [lo, lo+len(keys)),
// given global counts, returning the rank checksum contribution.
// rank(k) = number of keys with smaller value plus this key's ordinal
// among equal keys scanned so far in the chunk — the per-chunk ordinal
// keeps the checksum partition-independent by using the global index i as
// tiebreaker weight.
func (c Config) rankChunk(ctx *sim.Ctx, counts, keys []int32, lo int) int64 {
	// Prefix sums: start[v] = #keys < v.
	start := make([]int64, c.Bmax)
	var acc int64
	for v := 0; v < c.Bmax; v++ {
		start[v] = acc
		acc += int64(counts[v])
	}
	ctx.Compute(sim.Time(c.Bmax) * c.BktCost)
	var sum int64
	w := int64(lo % 97) // counts up to global index i's weight, i%97+1
	for _, k := range keys {
		w++
		sum += start[k] * w // start[k]: rank of the first key with this value
		if w == 97 {
			w = 0
		}
	}
	ctx.Compute(sim.Time(len(keys)) * c.KeyCost)
	return sum
}

func bucketChecksum(counts []int32) int64 {
	var s int64
	for v, n := range counts {
		s += int64(n) * int64(v+1)
	}
	return s
}

const lockBuckets = 0

const (
	tagChain = 1
	tagFinal = 2
)
