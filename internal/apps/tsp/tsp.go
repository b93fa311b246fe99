// Package tsp implements the traveling salesman problem with branch and
// bound (paper §3.6).  The major data structures are a pool of partially
// evaluated tours, a priority queue of promising tours, a stack of free
// pool slots, and the current shortest tour.
//
// get_tour removes the most promising path from the priority queue; if it
// is long enough it is handed to recursive_solve, which tries all
// permutations of the remaining cities; otherwise get_tour extends it by
// one city, pushes the promising children, and repeats.
//
// In the TreadMarks version all four structures live in shared memory:
// get_tour runs under one lock and shortest-tour updates under another,
// so the pool, queue, and stack migrate from processor to processor —
// the access pattern behind the paper's observation that TreadMarks sends
// an order of magnitude more messages than PVM here (diff accumulation on
// migratory data, several page faults per get_tour).
//
// In the PVM version a master process (co-located with slave 0, as in the
// paper) keeps everything in private memory; slaves message the master to
// request solvable tours and to report improved shortest tours.
package tsp

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
)

// Config describes one TSP instance.
type Config struct {
	Cities    int // number of cities
	Threshold int // recursive_solve handles suffixes up to this length
	Seed      uint64

	NodeCost  sim.Time // per search-tree node in recursive_solve
	BoundCost sim.Time // per lower-bound computation in get_tour
	QueueCost sim.Time // per priority-queue operation
}

// Paper returns the paper-like instance.  The paper's exact city count
// is unrecoverable from the source text; 14 cities with a recursive-solve
// threshold of 10 (the suffix length handed to the solver) gives the same
// coarse-grained branch-and-bound structure — few, large solver chunks
// behind a lock-protected queue — at a tractable search size.
func Paper() Config {
	return Config{Cities: 14, Threshold: 10, Seed: 16180,
		NodeCost: 900 * sim.Nanosecond, BoundCost: 3 * sim.Microsecond,
		QueueCost: 1500 * sim.Nanosecond}
}

// maxCities bounds an instance: the set of visited cities is a uint32
// mask.  It is also the fixed row stride of the distance matrix, so a row
// is an array and an index reduced modulo it needs no bounds check.
const maxCities = 32

// dist builds the deterministic distance matrix, one contiguous block of
// fixed-stride rows: cities on a seeded pseudo-random grid, Euclidean
// distances rounded to integers.
func (c Config) dist() [][maxCities]int32 {
	xs := make([]float64, c.Cities)
	ys := make([]float64, c.Cities)
	for i := 0; i < c.Cities; i++ {
		xs[i] = float64(sim.SplitMix64(c.Seed+uint64(2*i))%1000) / 10
		ys[i] = float64(sim.SplitMix64(c.Seed+uint64(2*i+1))%1000) / 10
	}
	d := make([][maxCities]int32, c.Cities)
	for i := range d {
		for j := range d {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			d[i][j] = int32(math.Round(math.Sqrt(dx*dx + dy*dy)))
		}
	}
	return d
}

// Output is the optimal tour length.
type Output struct {
	Best int32
}

// Check compares outputs exactly: branch and bound always finds the
// optimum regardless of exploration order.
func (o Output) Check(other Output) error {
	if o != other {
		return fmt.Errorf("tsp: best %d vs %d", o.Best, other.Best)
	}
	return nil
}

// solver carries the per-run search machinery shared by all versions.
// One solver serves every simulated processor of a run; it is read-only
// once built.
type solver struct {
	cfg  Config
	d    [][maxCities]int32
	minE [maxCities]int32 // cheapest incident edge per city
	min2 [maxCities]int32 // second-cheapest incident edge per city

	// live[last*(top+2)+t] is the set of cities c != last with
	// d[last][c]+minE[c] < t, for t in 0..top+1, where top is the largest
	// such sum: the cities that survive search's prune at a slack of t
	// below the bound (see alive).
	live []uint32
	top  int32
}

func newSolver(cfg Config) *solver {
	s := &solver{cfg: cfg, d: cfg.dist()}
	for i := range s.d {
		m1, m2 := int32(math.MaxInt32), int32(math.MaxInt32)
		for j := range s.d {
			if j == i {
				continue
			}
			switch v := s.d[i][j]; {
			case v < m1:
				m1, m2 = v, m1
			case v < m2:
				m2 = v
			}
		}
		s.minE[i] = m1
		s.min2[i] = m2
	}
	for i := range s.d {
		for j := range s.d {
			if j != i {
				s.top = max(s.top, s.d[i][j]+s.minE[j])
			}
		}
	}
	// Each city enters its row one past its sum, and every later entry
	// holds what the one before it holds.
	stride := int(s.top) + 2
	s.live = make([]uint32, len(s.d)*stride)
	for i := range s.d {
		row := s.live[i*stride : (i+1)*stride]
		for j := range s.d {
			if j != i {
				row[s.d[i][j]+s.minE[j]+1] |= 1 << uint(j)
			}
		}
		for t := 1; t < stride; t++ {
			row[t] |= row[t-1]
		}
	}
	return s
}

// alive returns the cities c that a node ending at last, with slack =
// best-length below the bound, may extend to: those with
// length+d[last][c]+minE[c] < best.  A slack of at most 0 leaves none, and
// one above top leaves every city but last.
func (s *solver) alive(last int32, slack int32) uint32 {
	return s.live[int(last)*int(s.top+2)+int(min(max(slack, 0), s.top+1))]
}

// lowerBound estimates the cheapest completion of a partial path.  The
// completion must leave the last city once, enter and leave every
// unvisited city, and re-enter the start city; the standard bound charges
// each unvisited city half the sum of its two cheapest incident edges,
// plus half a cheapest edge each for the path's two endpoints.
func (s *solver) lowerBound(path []int32, length int32) int32 {
	visited := uint32(0)
	for _, c := range path {
		visited |= 1 << uint(c)
	}
	est := int32(0)
	for c := 0; c < s.cfg.Cities; c++ {
		if visited&(1<<uint(c)) == 0 {
			est += s.minE[c] + s.min2[c]
		}
	}
	est += s.minE[path[len(path)-1]] + s.minE[path[0]]
	return length + est/2
}

// greedy returns the length of the nearest-neighbor tour from city 0:
// the deterministic initial bound every version seeds the search with,
// so pruning is effective from the first expansion.
func (s *solver) greedy() int32 {
	n := s.cfg.Cities
	visited := uint32(1)
	cur := int32(0)
	var length int32
	for count := 1; count < n; count++ {
		best := int32(-1)
		for c := int32(0); c < int32(n); c++ {
			if visited&(1<<uint(c)) != 0 {
				continue
			}
			if best < 0 || s.d[cur][c] < s.d[cur][best] {
				best = c
			}
		}
		length += s.d[cur][best]
		visited |= 1 << uint(best)
		cur = best
	}
	return length + s.d[cur][0]
}

// recursiveSolve tries all permutations of the cities missing from path,
// pruning against best, and returns the best complete-cycle length found
// (or best unchanged) and the number of search nodes visited.
//
// The node count is modeled time (NodeCost each, paper section 3.6), so
// it rests on three invariants that any rewrite of the search must keep:
//
//   - a node is counted on entry: once for the path handed in, and once
//     for every extension that survives the prune, complete tours
//     included;
//   - the candidates for the next city are tried in ascending city
//     order;
//   - a candidate c is pruned when nl+minE[c] >= best, where nl is the
//     length of the path extended by c and best is the live bound: an
//     improvement found under an earlier sibling prunes the later ones.
func (s *solver) recursiveSolve(path []int32, length int32, best int32) (int32, int64) {
	remaining := uint32(1)<<uint(s.cfg.Cities) - 1
	for _, c := range path {
		remaining &^= 1 << uint(c)
	}
	return s.search(path[len(path)-1], path[0], remaining, length, best)
}

// search visits the node whose path runs from start to last, has the
// given length and leaves the cities of the remaining mask unvisited.
// Everything it changes lives in its arguments and results.
//
// The prune test is read from the live table rather than made per
// candidate: the node's surviving children are remaining &
// alive(last, best-length), the same cities the test nl+minE[c] >= best
// would keep, still in ascending order.  When a child lowers best the
// siblings not yet visited are masked again at the new slack.  A child
// with two or more cities left and no surviving children of its own is
// counted as its one node without a call.  This took
// BenchmarkRecursiveSolve (the paper instance's root subtours, 30 270 106
// nodes) from 493-549 to 288-316 ms/op (2 vCPUs, go1.24).
func (s *solver) search(last, start int32, remaining uint32, length, best int32) (int32, int64) {
	nodes := int64(1)
	row := &s.d[last]
	if remaining&(remaining-1) == 0 {
		// At most one city left: close the tour here instead of
		// recursing into a node that could only count itself.
		if remaining != 0 {
			c := bits.TrailingZeros32(remaining) % maxCities
			length += row[c]
			if length+s.minE[c] >= best {
				return best, nodes
			}
			nodes++
			row = &s.d[c]
		}
		if total := length + row[start]; total < best {
			best = total
		}
		return best, nodes
	}
	for m := remaining & s.alive(last, best-length); m != 0; {
		c := bits.TrailingZeros32(m) % maxCities
		m &= m - 1
		nl := length + row[c]
		rest := remaining &^ (1 << uint(c))
		if rest&(rest-1) != 0 && rest&s.alive(int32(c), best-nl) == 0 {
			nodes++
			continue
		}
		found, sub := s.search(int32(c), start, rest, nl, best)
		nodes += sub
		if found < best {
			best = found
			m &= s.alive(last, best-length)
		}
	}
	return best, nodes
}

// returnLen is the path length at which get_tour stops extending:
// paths with at most Threshold cities remaining are solvable.
func (c Config) returnLen() int { return c.Cities - c.Threshold }

// Seq is the sequential branch and bound: a single worker with a private
// queue.
func (a *app) Seq(ctx *sim.Ctx) Output {
	cfg := a.cfg
	s := newSolver(cfg)
	best := s.greedy()
	// Priority queue of (bound, path) — local heap.
	type item struct {
		bound  int32
		length int32
		path   []int32
	}
	var heap []item
	push := func(it item) {
		heap = append(heap, it)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].bound <= heap[i].bound {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
		ctx.Compute(cfg.QueueCost)
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < last && heap[l].bound < heap[m].bound {
				m = l
			}
			if r < last && heap[r].bound < heap[m].bound {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		ctx.Compute(cfg.QueueCost)
		return top
	}
	push(item{0, 0, []int32{0}})
	for len(heap) > 0 {
		it := pop()
		if it.bound >= best {
			continue
		}
		if len(it.path) >= cfg.returnLen() {
			var nodes int64
			best, nodes = s.recursiveSolve(it.path, it.length, best)
			ctx.Compute(sim.Time(nodes) * cfg.NodeCost)
			continue
		}
		visited := uint32(0)
		for _, c := range it.path {
			visited |= 1 << uint(c)
		}
		last := it.path[len(it.path)-1]
		for c := int32(0); c < int32(cfg.Cities); c++ {
			if visited&(1<<uint(c)) != 0 {
				continue
			}
			nl := it.length + s.d[last][c]
			np := append(append([]int32(nil), it.path...), c)
			nb := s.lowerBound(np, nl)
			ctx.Compute(cfg.BoundCost)
			if nb < best {
				push(item{nb, nl, np})
			}
		}
	}
	return Output{Best: best}
}
