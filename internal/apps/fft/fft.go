// Package fft implements the NAS 3-D FFT kernel (paper §3.10): repeated
// Fourier transform passes over a three-dimensional complex array
// distributed along its first dimension.  FFTs along the second and third
// dimensions are local to a processor's planes; covering the first
// dimension requires a transpose, which is where all the communication
// happens.
//
// Each iteration transposes the array by rotating its dimensions —
// dst[x][y][z] = src[z][x][y] — and then runs FFT passes along the two
// innermost dimensions of the new layout plus a deterministic evolution
// factor.  Rotating (rather than swapping) the dimensions means each
// source page is read by essentially one remote processor, so the
// TreadMarks version moves almost the same amount of data as PVM (the
// paper's release-consistency observation for FFT) while sending many
// more messages (one diff request/response pair per page).  Locally, the
// innermost pass transforms one row at a time; the middle one runs each
// butterfly on whole rows of a plane, every column at once.
//
// In the TreadMarks version both array buffers are shared and a barrier
// separates iterations.  In the PVM version each processor explicitly
// sends every other processor the block it will own — index arithmetic
// the paper calls "much more error-prone than simply swapping the
// indices", which made the message-passing version significantly harder
// to write.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/sim"
)

// Config describes one 3-D FFT problem.  Layout dimensions rotate each
// iteration, so N1, N2, N3 must be equal for the plane distribution to
// stay aligned; the cube requirement is checked at run time.
type Config struct {
	N     int // cube edge (power of two)
	Iters int
	Seed  uint64

	PointCost sim.Time // per point per butterfly level
}

// Paper returns the paper-like problem.  The paper ran a scaled-down
// class A (limited swap space); we scale to 64^3 and keep the modeled
// per-point cost at the 99 MHz machine's level, preserving the
// compute-to-transpose ratio.
func Paper() Config {
	return Config{N: 64, Iters: 6, Seed: 299792, PointCost: 1500 * sim.Nanosecond}
}

func (c Config) points() int { return c.N * c.N * c.N }

func ilog2(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}

// initData builds elements [lo,hi) of the deterministic initial array
// (interleaved re/im float64, row-major; the whole array is
// [0, 2*c.points())).  Each value depends only on its global index.
func (c Config) initData(lo, hi int) []float64 {
	v := make([]float64, hi-lo)
	for i := range v {
		v[i] = float64(sim.SplitMix64(c.Seed+uint64(lo+i))>>11)/(1<<53) - 0.5
	}
	return v
}

// evolvePhase holds the 64 phase factors evolve can apply.  Filled once at
// init and never written again.
var evolvePhase = func() (t [64]complex128) {
	for k := range t {
		t[k] = cmplx.Rect(1, float64(k)/64*2*math.Pi)
	}
	return t
}()

// A plan is what every n-point transform of a passes call shares: the
// bit-reversal permutation, and twiddle k of the stage of half-length h at
// tw[2(h+k)], tw[2(h+k)+1], filled by the recurrence cw = cw*w from the
// stage's base w = e^(-i*pi/h), the same floats a per-block loop computes.
type plan struct {
	rev []int
	tw  []float64
}

func newPlan(n int) plan {
	p := plan{rev: make([]int, n), tw: make([]float64, 2*n)}
	for i := 1; i < n; i++ {
		p.rev[i] = p.rev[i>>1]>>1 | (i&1)*(n>>1)
	}
	for h := 1; h < n; h <<= 1 {
		ang := -2 * math.Pi / float64(2*h)
		wr, wi := math.Cos(ang), math.Sin(ang)
		cwr, cwi := 1.0, 0.0
		for k := h; k < 2*h; k++ {
			p.tw[2*k], p.tw[2*k+1] = cwr, cwi
			cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
		}
	}
	return p
}

// butterflies runs the radix-2 stages of an n-point transform over d: n
// rows of equal length in bit-reversed order, each row interleaved re/im,
// one transform per column.  Each butterfly loads its twiddle once and
// applies it across the whole row.
func (p plan) butterflies(d []float64) {
	n := len(p.rev)
	w := len(d) / n
	for h := 1; h < n; h <<= 1 {
		for start := 0; start < n; start += 2 * h {
			for k := 0; k < h; k++ {
				cwr, cwi := p.tw[2*(h+k)], p.tw[2*(h+k)+1]
				a, b := d[(start+k)*w:(start+k+1)*w], d[(start+k+h)*w:(start+k+h+1)*w]
				b = b[:len(a)]
				for z := 1; z < len(a); z += 2 {
					xr := b[z-1]*cwr - b[z]*cwi
					xi := b[z-1]*cwi + b[z]*cwr
					b[z-1], b[z] = a[z-1]-xr, a[z]-xi
					a[z-1], a[z] = a[z-1]+xr, a[z]+xi
				}
			}
		}
	}
}

// fft transforms the n interleaved complex values of d in place: gathered
// into scratch in bit-reversed order, run through the butterflies of a
// one-value row with the same twiddles, and copied back.
func (p plan) fft(d, scratch []float64) {
	for i, j := range p.rev {
		scratch[2*i], scratch[2*i+1] = d[2*j], d[2*j+1]
	}
	for h := 1; h < len(p.rev); h <<= 1 {
		tw := p.tw[2*h : 4*h]
		for start := 0; start+4*h <= len(scratch); start += 4 * h {
			a, b := scratch[start:start+2*h], scratch[start+2*h:start+4*h]
			b, t := b[:len(a)], tw[:len(a)]
			for k := 1; k < len(a); k += 2 {
				xr := b[k-1]*t[k-1] - b[k]*t[k]
				xi := b[k-1]*t[k] + b[k]*t[k-1]
				b[k-1], b[k] = a[k-1]-xr, a[k]-xi
				a[k-1], a[k] = a[k-1]+xr, a[k]+xi
			}
		}
	}
	copy(d, scratch)
}

// evolve applies the deterministic per-point phase factor of iteration it.
func evolve(re, im *float64, it, idx int) {
	ph := evolvePhase[(it*31+idx)%64]
	r, i := *re, *im
	*re = r*real(ph) - i*imag(ph)
	*im = r*imag(ph) + i*real(ph)
}

// Output is the verification checksum.
type Output struct {
	Sum int64
}

// Check compares outputs exactly: every version runs the same 1-D FFTs on
// the same vectors in the same element order, so results are bit-equal.
func (o Output) Check(other Output) error {
	if o != other {
		return fmt.Errorf("fft: checksum %d vs %d", o.Sum, other.Sum)
	}
	return nil
}

// chunkChecksum folds a slice into an integer checksum using global
// element indices (bit-exact and partition-independent).
func chunkChecksum(v []float64, base int) int64 {
	var s int64
	for i, x := range v {
		s += int64(math.Round(x*1e9)) % 1000003 * int64((base+i)%97+1)
	}
	return s
}

// passes runs the iteration's local work on a buffer holding planes
// [lo,hi) of an n x n x n layout (data[0] is the start of plane lo,
// interleaved re/im), one plane at a time while it is in cache: FFT along
// the third dimension, one row at a time; FFT along the second dimension
// on whole rows, so bit reversal swaps rows and each butterfly runs down
// every column at once; and the evolution factor, whose phase depends on
// the global element index.  Returns the modeled cost.
func passes(cfg Config, data []float64, lo, hi, it int) sim.Time {
	n := cfg.N
	p := newPlan(n)
	row := make([]float64, 2*n)
	for x := 0; x < hi-lo; x++ {
		plane := data[2*x*n*n : 2*(x+1)*n*n]
		for y := 0; y < n; y++ {
			p.fft(plane[2*y*n:2*(y+1)*n], row)
		}
		for i, j := range p.rev {
			if i < j {
				ri, rj := plane[2*i*n:2*(i+1)*n], plane[2*j*n:2*(j+1)*n]
				for z := range ri {
					ri[z], rj[z] = rj[z], ri[z]
				}
			}
		}
		p.butterflies(plane)
		for yz := 0; yz < n*n; yz++ {
			evolve(&plane[2*yz], &plane[2*yz+1], it, (lo+x)*n*n+yz)
		}
	}
	levels := 2*ilog2(n) + 1
	return sim.Time((hi-lo)*n*n*levels) * cfg.PointCost
}

func span(total, nprocs, id int) (int, int) {
	return id * total / nprocs, (id + 1) * total / nprocs
}
