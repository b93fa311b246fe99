// Package ep implements the NAS Embarrassingly Parallel benchmark
// (paper §3.3): generate pairs of Gaussian random deviates by the polar
// (acceptance-rejection) method and tabulate the number of pairs in
// successive square annuli.  The only communication is summing a
// ten-element list at the end of the run.
//
// In the TreadMarks version the shared tally is updated under a lock; in
// the PVM version processor 0 receives each processor's list and sums
// them, as described in the paper.
package ep

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Config describes one EP problem.
type Config struct {
	Pairs     int      // uniform pairs generated (before rejection)
	CostScale int      // virtual pairs modeled per real pair (problem scaling)
	PairCost  sim.Time // modeled CPU time per virtual pair
	Seed      uint64
}

// Paper returns the paper-equivalent problem: the class A size (2^28
// pairs) is modeled by generating 2^22 real pairs, each standing for 64
// virtual pairs of CPU time.  See EXPERIMENTS.md for the calibration.
func Paper() Config {
	return Config{Pairs: 1 << 22, CostScale: 64, PairCost: 3300 * sim.Nanosecond, Seed: 271828}
}

// Output is the benchmark result: annulus counts and deviate sums.
type Output struct {
	Q          [10]int64
	SumX, SumY float64
	Accepted   int64
}

// Check compares outputs: counts exactly, sums within floating tolerance
// (the parallel versions reduce partial sums in different orders).
func (o Output) Check(other Output) error {
	if o.Q != other.Q {
		return fmt.Errorf("ep: annuli differ: %v vs %v", o.Q, other.Q)
	}
	if o.Accepted != other.Accepted {
		return fmt.Errorf("ep: accepted %d vs %d", o.Accepted, other.Accepted)
	}
	if !closeEnough(o.SumX, other.SumX) || !closeEnough(o.SumY, other.SumY) {
		return fmt.Errorf("ep: sums differ: (%g,%g) vs (%g,%g)", o.SumX, o.SumY, other.SumX, other.SumY)
	}
	return nil
}

func closeEnough(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// splitmix64 gives a reproducible, index-addressable random stream, so
// every processor can generate its slice of pairs independently.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func uniform(seed, idx uint64) float64 {
	return 2*float64(splitmix64(seed+idx)>>11)/(1<<53) - 1
}

// chunk computes EP over pair indices [lo,hi), charging modeled time.
func chunk(ctx *sim.Ctx, cfg Config, lo, hi int) Output {
	var out Output
	const batch = 8192
	for i := lo; i < hi; i++ {
		if (i-lo)%batch == 0 {
			n := batch
			if hi-i < n {
				n = hi - i
			}
			ctx.Compute(sim.Time(n*cfg.CostScale) * cfg.PairCost)
		}
		x := uniform(cfg.Seed, uint64(2*i))
		y := uniform(cfg.Seed, uint64(2*i+1))
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := x*f, y*f
		out.SumX += gx
		out.SumY += gy
		l := int(math.Max(math.Abs(gx), math.Abs(gy)))
		if l > 9 {
			l = 9
		}
		out.Q[l]++
		out.Accepted++
	}
	return out
}

// span divides [0,total) into nearly equal slices.
func span(total, nprocs, id int) (int, int) {
	lo := id * total / nprocs
	hi := (id + 1) * total / nprocs
	return lo, hi
}

// Shared layout for the TreadMarks version.
const (
	lockTally = 0
)

// Message tags for the PVM version.
const tagTally = 1
