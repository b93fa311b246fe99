// Package barnes implements the SPLASH Barnes-Hut N-body simulation
// (paper §3.9).  Each time step has four phases: MakeTree (build the
// octree), Get_my_bodies (partition the bodies among processors with the
// costzone method — logically consecutive leaves of the tree), force
// computation (traverse the tree for each owned body), and update
// (integrate the owned bodies).
//
// In the TreadMarks version the array of bodies is shared and the tree
// cells are private: every processor reads all the shared bodies and
// builds the whole tree in private memory, then computes forces for and
// updates only its own bodies.  Because a processor's bodies are adjacent
// in the tree but not in memory, the update phase writes scattered
// elements of the body array — the false sharing that drives TreadMarks'
// extra messages here.  In the PVM version every processor broadcasts its
// updated bodies at the end of each step so all can rebuild the full
// tree, which saturates the network at 8 processors.
//
// Every processor of a run builds the same tree from the same bodies, so
// the host builds it once per step: a processor whose body snapshot is
// bit-equal to the one the run's last tree was built from takes that
// tree (treeShare).  Each processor still charges the whole MakeTree to
// its own modeled time, so no modeled value depends on the sharing.
package barnes

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Config describes one Barnes-Hut problem.
type Config struct {
	Bodies int
	Steps  int
	Theta  float64 // opening criterion
	Seed   uint64

	InteractCost sim.Time // per body-body or body-cell evaluation
	TreeCost     sim.Time // per body insertion during MakeTree
	UpdateCost   sim.Time // per body integration
}

// Paper returns the paper-like problem (8192 bodies).
func Paper() Config {
	return Config{Bodies: 8192, Steps: 6, Theta: 0.7, Seed: 667430,
		InteractCost: 3 * sim.Microsecond, TreeCost: 8 * sim.Microsecond,
		UpdateCost: 3 * sim.Microsecond}
}

func (c Config) unit(i uint64) float64 {
	return float64(sim.SplitMix64(c.Seed+i)>>11) / (1 << 53)
}

// initBodies places bodies in a Plummer-like clustered sphere.
// Layout: per body [px py pz vx vy vz m], stride 7 float64.
const stride = 7

func (c Config) initBodies() []float64 {
	v := make([]float64, stride*c.Bodies)
	for i := 0; i < c.Bodies; i++ {
		r := 0.1 + 4*math.Pow(c.unit(uint64(5*i)), 2)
		th := math.Acos(2*c.unit(uint64(5*i+1)) - 1)
		ph := 2 * math.Pi * c.unit(uint64(5*i+2))
		v[stride*i+0] = r * math.Sin(th) * math.Cos(ph)
		v[stride*i+1] = r * math.Sin(th) * math.Sin(ph)
		v[stride*i+2] = r * math.Cos(th)
		v[stride*i+3] = 0.05 * (c.unit(uint64(5*i+3)) - 0.5)
		v[stride*i+4] = 0.05 * (c.unit(uint64(5*i+4)) - 0.5)
		v[stride*i+5] = 0
		v[stride*i+6] = 1.0 / float64(c.Bodies)
	}
	return v
}

// Output is the verification checksum over final positions/velocities.
type Output struct {
	Sum int64
}

// Check compares outputs exactly: tree construction and traversal are
// deterministic functions of the shared body data, so every version
// computes identical forces in identical per-body order.
func (o Output) Check(other Output) error {
	if o != other {
		return fmt.Errorf("barnes: checksum %d vs %d", o.Sum, other.Sum)
	}
	return nil
}

// ---------------------------------------------------------------------
// Octree.

type cell struct {
	center [3]float64 // geometric center of the cube
	size   float64
	com    [3]float64 // center of mass
	mass   float64
	body   int      // leaf: body index, or -1
	kids   [8]*cell // internal node children
	leaf   bool
	nbody  int // bodies under this cell
}

// tree is a private per-processor octree over the body array.
type tree struct {
	root  *cell
	pos   []float64 // snapshot: stride-7 body records
	n     int
	built int    // insertion count, for cost accounting
	slab  []cell // unused cells of the current chunk (see newCell)
}

// newCell carves an empty cell from the tree's slab.  Every processor
// rebuilds the whole tree every step, so cells are allocated a chunk at
// a time instead of one by one.  A tree holds about 1.5 cells per body;
// chunks of half the body count fit that in three or four allocations
// with under half a chunk unused.  A full chunk is left to the cells
// that point into it and a fresh one started.
func (t *tree) newCell(center [3]float64, size float64) *cell {
	if len(t.slab) == 0 {
		t.slab = make([]cell, max(t.n/2, 64))
	}
	c := &t.slab[0]
	t.slab = t.slab[1:]
	c.center, c.size, c.body = center, size, -1
	return c
}

// buildTree constructs the octree over all bodies, inserting them in
// index order (deterministic).
func buildTree(bodies []float64, n int) *tree {
	t := &tree{pos: bodies, n: n}
	// Bounding cube.
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			p := bodies[stride*i+k]
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
	}
	half := (max - min) / 2
	mid := (max + min) / 2
	t.root = t.newCell([3]float64{mid, mid, mid}, 2*half*1.0001)
	for i := 0; i < n; i++ {
		t.insert(t.root, i)
		t.built++
	}
	t.summarize(t.root)
	return t
}

func (t *tree) bodyPos(i int) [3]float64 {
	return [3]float64{t.pos[stride*i], t.pos[stride*i+1], t.pos[stride*i+2]}
}

func (t *tree) octant(c *cell, p [3]float64) int {
	o := 0
	for k := 0; k < 3; k++ {
		if p[k] >= c.center[k] {
			o |= 1 << uint(k)
		}
	}
	return o
}

func (t *tree) child(c *cell, o int) *cell {
	if c.kids[o] == nil {
		q := c.size / 4
		ctr := c.center
		for k := 0; k < 3; k++ {
			if o&(1<<uint(k)) != 0 {
				ctr[k] += q
			} else {
				ctr[k] -= q
			}
		}
		c.kids[o] = t.newCell(ctr, c.size/2)
	}
	return c.kids[o]
}

func (t *tree) insert(c *cell, i int) {
	if c.nbody == 0 {
		c.leaf = true
		c.body = i
		c.nbody = 1
		return
	}
	if c.leaf {
		// Split: push the resident body down.
		old := c.body
		c.leaf = false
		c.body = -1
		if c.size < 1e-9 {
			// Coincident bodies: keep both in a degenerate chain guard.
			c.leaf = true
			c.body = old
			c.nbody++
			return
		}
		t.insert(t.child(c, t.octant(c, t.bodyPos(old))), old)
	}
	t.insert(t.child(c, t.octant(c, t.bodyPos(i))), i)
	c.nbody++
}

// summarize computes centers of mass bottom-up.
func (t *tree) summarize(c *cell) {
	if c.leaf {
		b := c.body
		c.mass = t.pos[stride*b+6] * float64(c.nbody)
		c.com = t.bodyPos(b)
		return
	}
	var m float64
	var com [3]float64
	for _, k := range c.kids {
		if k == nil || k.nbody == 0 {
			continue
		}
		t.summarize(k)
		m += k.mass
		for j := 0; j < 3; j++ {
			com[j] += k.mass * k.com[j]
		}
	}
	c.mass = m
	if m > 0 {
		for j := 0; j < 3; j++ {
			com[j] /= m
		}
	}
	c.com = com
}

// treeShare is one run's most recent tree and its leaf order, shared by
// the run's processors.  A processor whose snapshot is bit-equal to the
// one the tree was built from takes it; one whose snapshot differs (it
// is at another step, or its DSM served it other data) builds its own
// tree, which replaces the shared one.  The comparison is of bits, not
// values, since a −0 and a +0 can build different trees.  The tree owns
// a copy of its snapshot: callers integrate their bodies in place after
// the force phase.  Trees and leaf orders are never written after they
// are built.
type treeShare struct {
	t      *tree
	leaves []int
}

// get returns the tree over bodies, its n bodies inserted in index
// order, and its leaf order.
func (s *treeShare) get(bodies []float64, n int) (*tree, []int) {
	if s.t == nil || !sameBits(s.t.pos, bodies) {
		s.t = buildTree(append([]float64(nil), bodies...), n)
		s.leaves = s.t.leavesInOrder(s.t.root, nil)
	}
	return s.t, s.leaves
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// leavesInOrder appends body indices in deterministic tree order: the
// basis of the costzone partition.
func (t *tree) leavesInOrder(c *cell, out []int) []int {
	if c == nil || c.nbody == 0 {
		return out
	}
	if c.leaf {
		return append(out, c.body)
	}
	for _, k := range c.kids {
		out = t.leavesInOrder(k, out)
	}
	return out
}

// force computes the acceleration on body i by tree traversal with the
// given opening criterion, returning the interaction count.
func (t *tree) force(i int, theta float64, acc *[3]float64) int {
	if t.root.nbody == 0 {
		return 0
	}
	p := t.bodyPos(i)
	return t.root.walk(i, p[0], p[1], p[2], theta*theta, acc)
}

// walk adds to acc the pull on body i, at (p0,p1,p2), of the bodies under
// the non-empty cell c, and returns the interaction count.  The count is
// modeled time and the sums are the app's output, so the traversal
// order, the opening test and the order of every floating-point
// operation are fixed: r2 is summed x, y, z from zero, and the criterion
// compares size*size with (theta*theta)*r2.
func (c *cell) walk(i int, p0, p1, p2, theta2 float64, acc *[3]float64) int {
	if c.leaf && c.body == i && c.nbody == 1 {
		return 0
	}
	const soft = 0.01
	d0 := c.com[0] - p0
	d1 := c.com[1] - p1
	d2 := c.com[2] - p2
	r2 := 0.0
	r2 += d0 * d0
	r2 += d1 * d1
	r2 += d2 * d2
	if c.leaf || c.size*c.size < theta2*r2 {
		if r2 != 0 {
			inv := c.mass / ((r2 + soft) * math.Sqrt(r2+soft))
			acc[0] += inv * d0
			acc[1] += inv * d1
			acc[2] += inv * d2
		}
		return 1
	}
	n := 0
	for o := range c.kids {
		if k := c.kids[o]; k != nil && k.nbody != 0 {
			n += k.walk(i, p0, p1, p2, theta2, acc)
		}
	}
	return n
}

// costzone splits the in-order leaf list into nprocs equal slices and
// returns processor id's bodies.
func costzone(leaves []int, nprocs, id int) []int {
	lo := id * len(leaves) / nprocs
	hi := (id + 1) * len(leaves) / nprocs
	return leaves[lo:hi]
}

// integrate advances one body given its acceleration.
func integrate(bodies []float64, i int, acc [3]float64) {
	const dt = 0.05
	for k := 0; k < 3; k++ {
		bodies[stride*i+3+k] += acc[k] * dt
		bodies[stride*i+k] += bodies[stride*i+3+k] * dt
	}
}

// checksum folds the listed bodies' positions and velocities into an
// integer (bit-exact and additive over disjoint body sets).
func checksum(bodies []float64, idx []int) int64 {
	var s int64
	for _, i := range idx {
		for k := 0; k < 6; k++ {
			v := bodies[stride*i+k]
			s += int64(math.Round(v*1e9)) % 1000003 * int64((stride*i+k)%89+1)
		}
	}
	return s
}
