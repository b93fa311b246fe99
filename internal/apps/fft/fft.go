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
// more messages (one diff request/response pair per page).
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

// Small returns a CI-sized problem.
func Small() Config {
	return Config{N: 8, Iters: 3, Seed: 299792, PointCost: 1500 * sim.Nanosecond}
}

func (c Config) points() int { return c.N * c.N * c.N }

func ilog2(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// initData builds elements [lo,hi) of the deterministic initial array
// (interleaved re/im float64, row-major; the whole array is
// [0, 2*c.points())).  Each value depends only on its global index.
func (c Config) initData(lo, hi int) []float64 {
	v := make([]float64, hi-lo)
	for i := range v {
		v[i] = float64(splitmix64(c.Seed+uint64(lo+i))>>11)/(1<<53) - 0.5
	}
	return v
}

// stageTwiddle[l] is the butterfly stage's base twiddle (cos, sin) of
// -2*pi/2^l: what fft1d would otherwise recompute per stage per transform.
// Filled once at init and never written again.
var stageTwiddle = func() (t [63][2]float64) {
	for l := 1; l < len(t); l++ {
		ang := -2 * math.Pi / float64(int(1)<<l)
		t[l] = [2]float64{math.Cos(ang), math.Sin(ang)}
	}
	return t
}()

// evolvePhase holds the 64 phase factors evolve can apply.  Filled once at
// init and never written again.
var evolvePhase = func() (t [64]complex128) {
	for k := range t {
		t[k] = cmplx.Rect(1, float64(k)/64*2*math.Pi)
	}
	return t
}()

// fft1d performs an in-place radix-2 complex FFT on re/im pairs of
// length n (a power of two).
func fft1d(re, im []float64) {
	n := len(re)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for l, length := 1, 2; length <= n; l, length = l+1, length<<1 {
		wr, wi := stageTwiddle[l][0], stageTwiddle[l][1]
		for start := 0; start < n; start += length {
			cwr, cwi := 1.0, 0.0
			for k := 0; k < length/2; k++ {
				i0, i1 := start+k, start+k+length/2
				xr := re[i1]*cwr - im[i1]*cwi
				xi := re[i1]*cwi + im[i1]*cwr
				re[i1], im[i1] = re[i0]-xr, im[i0]-xi
				re[i0], im[i0] = re[i0]+xr, im[i0]+xi
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
			}
		}
	}
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
// interleaved re/im): FFT along the third dimension (contiguous), FFT
// along the second dimension (strided), and the evolution factor, whose
// phase depends on the global element index.  Returns the modeled cost.
func passes(cfg Config, data []float64, lo, hi, it int) sim.Time {
	n := cfg.N
	re := make([]float64, n)
	im := make([]float64, n)
	for x := 0; x < hi-lo; x++ {
		for y := 0; y < n; y++ {
			base := 2 * ((x*n + y) * n)
			for z := 0; z < n; z++ {
				re[z], im[z] = data[base+2*z], data[base+2*z+1]
			}
			fft1d(re, im)
			for z := 0; z < n; z++ {
				data[base+2*z], data[base+2*z+1] = re[z], im[z]
			}
		}
	}
	for x := 0; x < hi-lo; x++ {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				idx := 2 * ((x*n+y)*n + z)
				re[y], im[y] = data[idx], data[idx+1]
			}
			fft1d(re, im)
			for y := 0; y < n; y++ {
				idx := 2 * ((x*n+y)*n + z)
				data[idx], data[idx+1] = re[y], im[y]
			}
		}
	}
	for x := 0; x < hi-lo; x++ {
		for yz := 0; yz < n*n; yz++ {
			idx := 2 * (x*n*n + yz)
			evolve(&data[idx], &data[idx+1], it, (lo+x)*n*n+yz)
		}
	}
	levels := 2*ilog2(n) + 1
	return sim.Time((hi-lo)*n*n*levels) * cfg.PointCost
}

func span(total, nprocs, id int) (int, int) {
	return id * total / nprocs, (id + 1) * total / nprocs
}
