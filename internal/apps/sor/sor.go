// Package sor implements red-black successive over-relaxation
// (paper §3.4): a five-point stencil over a matrix of floats, with the
// red and black elements stored as two separate arrays divided into
// contiguous bands of rows, one band per processor.  Communication occurs
// only across the boundary rows between bands.
//
// One "iteration" is one color sweep (red and black alternate), matching
// the paper's accounting: the PVM version sends 2*(n-1) messages per
// iteration (each processor ships the just-updated boundary row to its
// neighbors), while TreadMarks pays 2*(n-1) barrier messages plus 8*(n-1)
// messages to page in the boundary-row diffs — each boundary row spans
// one and a half pages, so two diff request/response exchanges per row.
//
// The two input modes reproduce the paper's load-imbalance observation:
// with zero-initialized interiors (SOR-Zero), elements that remain zero
// model the slow denormalized/underflow arithmetic of the era's FPUs, so
// processors in the middle of the array run slower than those near the
// nonzero edges.  With nonzero initialization (SOR-Nonzero) the load is
// balanced and per-element cost lower.
package sor

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Config describes one SOR problem.
type Config struct {
	M, N     int      // matrix rows and columns (N split into red/black halves)
	Sweeps   int      // color sweeps (2 sweeps = 1 full red+black iteration)
	Zero     bool     // zero-initialized interior (SOR-Zero) or nonzero
	CostFast sim.Time // per-element update cost, nonzero operands
	CostSlow sim.Time // per-element update cost when the result underflows
}

// Paper returns the paper-scale problem.  The paper runs 2048 x 3072
// single-precision floats (each red or black row is 1536 float32 = 6 KB =
// 1.5 pages); we store float64 at half the column count, which preserves
// the page geometry exactly, and double the per-element cost so each
// float64 element stands for two float32 elements of computation.
func Paper(zero bool) Config {
	return Config{
		M: 2048, N: 1536, Sweeps: 20, Zero: zero,
		CostFast: 800 * sim.Nanosecond,
		CostSlow: 2400 * sim.Nanosecond,
	}
}

// Small returns a CI-sized problem that keeps the 1.5-page row geometry.
func Small(zero bool) Config {
	return Config{
		M: 64, N: 1536, Sweeps: 6, Zero: zero,
		CostFast: 800 * sim.Nanosecond,
		CostSlow: 2400 * sim.Nanosecond,
	}
}

func (c Config) half() int { return c.N / 2 }

// rowFiller fills rows of the initial red and black arrays.  Matrix
// element (i,j) starts at 1 on the boundary, 0 inside for SOR-Zero, and
// 1 + 0.5*sin(31i+17j) inside for SOR-Nonzero.  val[n-base] keeps that
// interior value for argument n once it is computed; 0, which no
// 1 + 0.5*sin reaches, marks one not computed yet.
type rowFiller struct {
	cfg  Config
	base int
	val  []float64
}

// filler returns the filler of rows [lo,hi).  For SOR-Nonzero it holds
// a slot for every integer from the least to the greatest 31i+17j those
// rows reach, and each sine is taken once, when a row first needs it,
// where a sine per element takes each about 35 times: 34 K sines for a
// P=8 band of the paper's matrix instead of 396 K.  Filling the slots
// ahead would take more sines than one per element for a band of fewer
// than about 17 rows (26 K against 9 K for a P=8 band at scale 0.01).
// SOR-Zero keeps no slots.
func (c Config) filler(lo, hi int) rowFiller {
	f := rowFiller{cfg: c}
	lo, hi = max(lo, 1), min(hi, c.M-1) // the rows with an interior
	if c.Zero || lo >= hi {
		return f
	}
	f.base = 31 * lo
	f.val = make([]float64, 31*(hi-1)+17*(c.N-1)-f.base+1)
	return f
}

// fillRow writes row i of one colour's initial array into dst (N/2
// elements; colour 0 is red, 1 black).  Red holds matrix elements with
// (i+j) even, black the odd ones.  Row i must lie in the filler's rows.
// The interior is written in one pass — for SOR-Nonzero every 34th slot,
// as dst's columns are two apart — and the boundary columns after it.
// This took the paper-scale fills of the table2-pvm selection from
// 0.16 s to 0.03 s of host time (2 vCPUs, go1.24).
func (f rowFiller) fillRow(dst []float64, i, colour int) {
	c := f.cfg
	j0 := (i + colour) % 2 // dst[k] holds column 2k+j0
	switch {
	case i == 0 || i == c.M-1:
		for k := range dst {
			dst[k] = 1.0
		}
		return
	case c.Zero:
		clear(dst)
	default:
		n0 := 31*i + 17*j0 // the sine argument of dst[0]
		val := f.val[n0-f.base:]
		for k := range dst {
			v := val[34*k]
			if v == 0 {
				v = 1.0 + 0.5*math.Sin(float64(n0+34*k))
				val[34*k] = v
			}
			dst[k] = v
		}
	}
	if j0 == 0 && len(dst) > 0 {
		dst[0] = 1.0
	}
	if k := (c.N - 1 - j0) / 2; 2*k+j0 == c.N-1 && k < len(dst) {
		dst[k] = 1.0
	}
}

// grids builds the initial red and black arrays (row-major, M x N/2).
func (c Config) grids() (red, black []float64) {
	h := c.half()
	red = make([]float64, c.M*h)
	black = make([]float64, c.M*h)
	f := c.filler(0, c.M)
	for i := 0; i < c.M; i++ {
		f.fillRow(red[i*h:(i+1)*h], i, 0)
		f.fillRow(black[i*h:(i+1)*h], i, 1)
	}
	return red, black
}

// Output carries the verification checksum: per-row sums reduced in a
// fixed global row order, so the result is independent of the band
// partition (bit-exact across sequential, TreadMarks, and PVM versions).
type Output struct {
	Checksum float64
}

// Check compares outputs exactly.
func (o Output) Check(other Output) error {
	if o.Checksum != other.Checksum {
		return fmt.Errorf("sor: checksum %g vs %g", o.Checksum, other.Checksum)
	}
	return nil
}

// sweepRow updates one row of the target color and returns the modeled
// cost.  target[k] is matrix column 2k+colPar of row i; its stencil
// neighbors live in the other-color rows above (up), at (same) and below
// (down).  The vertical neighbors share its index k; the horizontal ones,
// columns 2k+colPar-1 and 2k+colPar+1 of the opposite parity, sit at
// same[k-1+colPar] and same[k+colPar].
//
// The cost is modeled time and the row is the app's output: each
// element is 0.25*(((up+down)+left)+right), and pays CostSlow when the
// result is exactly zero, CostFast otherwise.
func sweepRow(cfg Config, i int, target, up, same, down []float64, colPar int) sim.Time {
	if i == 0 || i == cfg.M-1 {
		return 0 // fixed boundary row
	}
	// The interior elements are target[lo:hi]: element 0 is the fixed
	// column 0 when colPar is 0, and the last element the fixed column
	// N-1 when colPar is 1 and N is even.
	lo, hi := 1-colPar, cfg.half()
	if 2*(hi-1)+colPar == cfg.N-1 {
		hi--
	}
	if lo >= hi {
		return 0
	}
	// The last horizontal neighbor is indexed before the rows are cut to
	// the interior, because an index is checked against len and a slice
	// bound only against cap.
	_ = same[hi-1+colPar]
	target = target[lo:hi]
	up, down = up[lo:hi], down[lo:hi]
	left, right := same[lo-1+colPar:hi-1+colPar], same[lo+colPar:hi+colPar]
	slow := 0
	for k := range target {
		v := 0.25 * (up[k] + down[k] + left[k] + right[k])
		target[k] = v
		if v == 0 {
			slow++
		}
	}
	fast := len(target) - slow
	return sim.Time(fast)*cfg.CostFast + sim.Time(slow)*cfg.CostSlow
}

// colParity returns the column parity of the color stored in arr index k
// of row i: red rows have parity i%2, black rows 1-(i%2).
func colParity(i int, red bool) int {
	if red {
		return i % 2
	}
	return 1 - i%2
}

// rowSum sums a row in index order (fixed fp order for verification).
func rowSum(row []float64) float64 {
	s := 0.0
	for _, v := range row {
		s += v
	}
	return s
}

// checksum reduces per-row sums of both arrays in global row order.
func checksum(rowSums []float64) float64 {
	s := 0.0
	for _, v := range rowSums {
		s += v
	}
	return s
}

// band returns processor id's row range [lo,hi).
func band(m, nprocs, id int) (int, int) {
	return id * m / nprocs, (id + 1) * m / nprocs
}

// Message tags for the PVM version.
const (
	tagRowDown = 1 // boundary row sent to the lower neighbor
	tagRowUp   = 2 // boundary row sent to the upper neighbor
	tagSums    = 3
)
