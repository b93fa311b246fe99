// Package water implements the SPLASH Water molecular dynamics kernel
// (paper §3.8): molecules in a periodic box; each time step updates
// positions, computes pairwise intermolecular forces within a spherical
// cutoff, and updates velocities.  To avoid computing all n^2/2 pairs,
// each processor computes interactions between its own molecules and the
// n/2 molecules following them in wraparound order.
//
// Parallelization follows the paper's tuned TreadMarks version: the
// molecule array is statically divided into contiguous chunks; only
// positions ("displacements") and forces are shared; force contributions
// are accumulated locally during the force phase and added to the shared
// arrays at the end of the phase under per-processor locks.  In the PVM
// version processors exchange displacements before the force phase and
// ship locally accumulated force modifications afterwards — two user
// messages per interacting processor pair.
//
// Force accumulation order differs between runs and systems, so forces
// are accumulated in fixed-point (integer) units: addition becomes
// associative and every version produces bit-identical results.
package water

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Config describes one Water problem.
type Config struct {
	Mols  int // number of molecules (the paper: 288 and 1728)
	Steps int // time steps (the paper: 5)
	Seed  uint64

	PairCost sim.Time // per pairwise interaction evaluated
	MolCost  sim.Time // per molecule per integration phase
}

// Paper288 returns the small input (288 molecules).
func Paper288() Config {
	return Config{Mols: 288, Steps: 5, Seed: 602214,
		PairCost: 15 * sim.Microsecond, MolCost: 5 * sim.Microsecond}
}

// Paper1728 returns the large input (1728 molecules).
func Paper1728() Config {
	return Config{Mols: 1728, Steps: 5, Seed: 602214,
		PairCost: 15 * sim.Microsecond, MolCost: 5 * sim.Microsecond}
}

// Fixed-point scale for force accumulation.
const fpScale = 1 << 20

// box returns the periodic box side: density held constant.
func (c Config) box() float64 {
	return 10 * math.Cbrt(float64(c.Mols)/64)
}

// cutoff returns the spherical cutoff radius.
func (c Config) cutoff() float64 {
	half := c.box() / 2
	return half * 0.9
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// initPositions places molecules on a perturbed lattice.
func (c Config) initPositions() []float64 {
	side := int(math.Ceil(math.Cbrt(float64(c.Mols))))
	spacing := c.box() / float64(side)
	pos := make([]float64, 3*c.Mols)
	i := 0
	for x := 0; x < side && i < c.Mols; x++ {
		for y := 0; y < side && i < c.Mols; y++ {
			for z := 0; z < side && i < c.Mols; z++ {
				jx := float64(splitmix64(c.Seed+uint64(3*i))%1000)/5000 - 0.1
				jy := float64(splitmix64(c.Seed+uint64(3*i+1))%1000)/5000 - 0.1
				jz := float64(splitmix64(c.Seed+uint64(3*i+2))%1000)/5000 - 0.1
				pos[3*i] = (float64(x) + 0.5 + jx) * spacing
				pos[3*i+1] = (float64(y) + 0.5 + jy) * spacing
				pos[3*i+2] = (float64(z) + 0.5 + jz) * spacing
				i++
			}
		}
	}
	return pos
}

// Output is the verification checksum: fixed-point force totals and a
// position checksum after the final step.
type Output struct {
	ForceSum int64
	PosSum   int64
}

// Check compares outputs exactly (fixed-point arithmetic end to end).
func (o Output) Check(other Output) error {
	if o != other {
		return fmt.Errorf("water: output %+v vs %+v", o, other)
	}
	return nil
}

// pairForce computes the fixed-point force contribution between two
// molecules under the minimum-image convention, or ok=false outside the
// cutoff.
func pairForce(box, cut float64, pa, pb []float64) (f [3]int64, ok bool) {
	var d [3]float64
	r2 := 0.0
	for k := 0; k < 3; k++ {
		d[k] = pa[k] - pb[k]
		if d[k] > box/2 {
			d[k] -= box
		} else if d[k] < -box/2 {
			d[k] += box
		}
		r2 += d[k] * d[k]
	}
	if r2 >= cut*cut || r2 == 0 {
		return f, false
	}
	// Soft Lennard-Jones-like radial force.
	inv := 1.0 / (r2 + 0.25)
	mag := inv*inv - 0.05*inv
	for k := 0; k < 3; k++ {
		f[k] = int64(math.Round(mag * d[k] * fpScale))
	}
	return f, true
}

// chunk returns processor id's molecule range [lo,hi).
func chunk(mols, nprocs, id int) (int, int) {
	return id * mols / nprocs, (id + 1) * mols / nprocs
}

// owner returns the processor owning molecule m.
func owner(mols, nprocs, m int) int {
	// Inverse of chunk's split.
	for p := 0; p < nprocs; p++ {
		lo, hi := chunk(mols, nprocs, p)
		if m >= lo && m < hi {
			return p
		}
	}
	panic("water: no owner")
}

// sim state shared by the three versions, operating on plain slices.
type state struct {
	cfg Config
	box float64
	cut float64
	pos []float64 // 3n positions
	vel []float64 // 3n velocities (private in all versions)
}

func newState(cfg Config) *state {
	return &state{cfg: cfg, box: cfg.box(), cut: cfg.cutoff(),
		pos: cfg.initPositions(), vel: make([]float64, 3*cfg.Mols)}
}

// forceRange computes force contributions of molecules [lo,hi) against
// their n/2 followers, accumulating fixed-point forces into acc (length
// 3n), and returns the number of pairs evaluated.
func (s *state) forceRange(lo, hi int, acc []int64) int {
	n := s.cfg.Mols
	half := n / 2
	pairs := 0
	for a := lo; a < hi; a++ {
		pa := s.pos[3*a : 3*a+3]
		for off := 1; off <= half; off++ {
			b := (a + off) % n
			// With even n, pair (a, a+n/2) appears twice (once from each
			// side); keep only the copy from the smaller index.
			if 2*off == n && a >= b {
				continue
			}
			pairs++
			f, ok := pairForce(s.box, s.cut, pa, s.pos[3*b:3*b+3])
			if !ok {
				continue
			}
			for k := 0; k < 3; k++ {
				acc[3*a+k] += f[k]
				acc[3*b+k] -= f[k]
			}
		}
	}
	return pairs
}

// integrate advances molecules [lo,hi) one step from fixed-point forces,
// updating positions and velocities in place.
func (s *state) integrate(lo, hi int, forces []int64) {
	const dt = 0.002
	for m := lo; m < hi; m++ {
		for k := 0; k < 3; k++ {
			fv := float64(forces[3*m+k]) / fpScale
			s.vel[3*m+k] += fv * dt
			p := s.pos[3*m+k] + s.vel[3*m+k]*dt
			// Wrap into the box.
			if p < 0 {
				p += s.box
			} else if p >= s.box {
				p -= s.box
			}
			s.pos[3*m+k] = p
		}
	}
}

// checksum folds positions and forces into the exact output.
func (s *state) checksum(forces []int64) Output {
	var out Output
	for i := range forces {
		out.ForceSum += forces[i] * int64(i%31+1)
	}
	for i, p := range s.pos {
		out.PosSum += int64(math.Round(p*1e6)) * int64(i%17+1)
	}
	return out
}
