// Package ilink implements the computational kernel of ILINK, the genetic
// linkage analysis program the paper evaluates (§3.11), following the
// parallelization of Dwarkadas et al.: the program walks a set of family
// trees visiting each nuclear family; a bank of genarrays (per-person
// genotype probability vectors, sparse, with an index array of nonzero
// positions) is reinitialized for every family; updates to a parent's
// genarray are parallelized by assigning the nonzero elements to
// processors round-robin; the master then sums the contributions.
//
// The paper's CLP input is proprietary pedigree data; we substitute a
// deterministic synthetic pedigree whose genarrays have the same footprint
// (multi-page, sparse, with nonzeros clustered as haplotype structure
// clusters them).  The three TreadMarks effects the paper identifies are
// all preserved: one diff request per genarray page instead of PVM's
// single batched message, false sharing from the round-robin element
// assignment, and diff accumulation from the bank reinitialization.
//
// In the TreadMarks version the bank and the index array are shared and
// barriers separate the phases.  In the PVM version the master keeps the
// bank privately and exchanges only nonzero elements with the slaves, one
// message each way per family.
package ilink

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes one linkage analysis run.
type Config struct {
	G        int // genarray length (float64 entries; 512 entries = 1 page)
	Families int // nuclear family visits
	FamSize  int // persons per nuclear family (parent, spouse, children)
	Cluster  int // nonzero cluster span within a genarray
	Seed     uint64

	ElemCost sim.Time // per (nonzero element x family member) update
	InitCost sim.Time // per genarray entry at reinitialization
	SumCost  sim.Time // per nonzero at the master's summation
}

// Paper returns the CLP-scale substitute: 8-page genarrays, five-person
// families, ~820 nonzeros per parent.
func Paper() Config {
	return Config{G: 4096, Families: 16, FamSize: 5, Cluster: 1024, Seed: 533000,
		ElemCost: 500 * sim.Microsecond, InitCost: 2 * sim.Microsecond,
		SumCost: 1 * sim.Microsecond}
}

func (c Config) unit(k uint64) float64 {
	return float64(sim.SplitMix64(c.Seed+k)>>11) / (1 << 53)
}

// clusterStart gives the nonzero cluster origin for (family, member).
func (c Config) clusterStart(fam, member int) int {
	span := c.G - c.Cluster
	if span <= 0 {
		return 0
	}
	return int(sim.SplitMix64(c.Seed+uint64(1000*fam+member)) % uint64(span))
}

// initValue returns person member's genarray entry g for the given
// family: nonzero inside the member's cluster with ~80% density.
func (c Config) initValue(fam, member, g int) float64 {
	start := c.clusterStart(fam, member)
	if g < start || g >= start+c.Cluster {
		return 0
	}
	key := uint64(fam)<<40 | uint64(member)<<32 | uint64(g)
	if sim.SplitMix64(c.Seed+key)%100 >= 80 {
		return 0
	}
	return 0.1 + 0.9*c.unit(key+7)
}

// parentNonzeros lists the parent's nonzero positions in order.
func (c Config) parentNonzeros(fam int) []int32 {
	var out []int32
	start := c.clusterStart(fam, 0)
	for g := start; g < start+c.Cluster && g < c.G; g++ {
		if c.initValue(fam, 0, g) != 0 {
			out = append(out, int32(g))
		}
	}
	return out
}

// updateElem computes the parent's updated genarray entry at position g,
// conditioned on the other family members (genArrays[m][.]).  The mapping
// into member m's cluster mirrors haplotype correspondence.
func (c Config) updateElem(fam int, g int32, parentVal float64, members [][]float64) float64 {
	v := parentVal
	pstart := c.clusterStart(fam, 0)
	for m := 1; m < c.FamSize; m++ {
		mstart := c.clusterStart(fam, m)
		gm := mstart + (int(g)-pstart)%c.Cluster
		if gm >= c.G {
			gm = c.G - 1
		}
		v *= 0.55 + 0.4*members[m][gm]
	}
	return v
}

// Output is the accumulated log-likelihood (bit-exact across versions:
// the master always sums contributions in index order).
type Output struct {
	LogLike float64
}

// Check compares outputs exactly.
func (o Output) Check(other Output) error {
	if o != other {
		return fmt.Errorf("ilink: loglike %v vs %v", o.LogLike, other.LogLike)
	}
	return nil
}
