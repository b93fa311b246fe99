package tsp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// bruteForce solves a tiny instance exhaustively for ground truth.
func bruteForce(cfg Config) int32 {
	s := newSolver(cfg)
	best := int32(math.MaxInt32)
	var rec func(path []int32, visited uint32, length int32)
	rec = func(path []int32, visited uint32, length int32) {
		if len(path) == cfg.Cities {
			if t := length + s.d[path[len(path)-1]][path[0]]; t < best {
				best = t
			}
			return
		}
		for c := int32(0); c < int32(cfg.Cities); c++ {
			if visited&(1<<uint(c)) != 0 {
				continue
			}
			rec(append(path, c), visited|1<<uint(c), length+s.d[path[len(path)-1]][c])
		}
	}
	rec([]int32{0}, 1, 0)
	return best
}

// run runs a on backend b at n processors, failing the test on error.
func run(t *testing.T, b core.Backend, a *app, n int) core.Result {
	t.Helper()
	res, err := b.Run(a, core.Base(n))
	if err != nil {
		t.Fatalf("%s n=%d: %v", b.Name(), n, err)
	}
	return res
}

func TestSeqFindsOptimum(t *testing.T) {
	cfg := Config{Cities: 9, Threshold: 5, Seed: 16180,
		NodeCost: 1, BoundCost: 1, QueueCost: 1}
	want := bruteForce(cfg)
	a := newApp(cfg)
	run(t, core.Seq, a, 1)
	if a.seqOut.Best != want {
		t.Fatalf("seq best = %d, brute force = %d", a.seqOut.Best, want)
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	a := newApp(small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 4, 8} {
		run(t, core.TMK, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPVMMatchesSequential(t *testing.T) {
	a := newApp(small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 4, 8} {
		run(t, core.PVM, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// The paper: TreadMarks sends an order of magnitude more messages than
// PVM (migratory data structures vs a handful of master/slave exchanges).
func TestTMKSendsManyMoreMessages(t *testing.T) {
	a := newApp(small())
	const n = 4
	pvmRes := run(t, core.PVM, a, n)
	tmkRes := run(t, core.TMK, a, n)
	if tmkRes.Net.Messages < 3*pvmRes.Net.Messages {
		t.Fatalf("tmk %d msgs vs pvm %d msgs: expected a large ratio",
			tmkRes.Net.Messages, pvmRes.Net.Messages)
	}
}

// Paper-scale run: TreadMarks reaches roughly two thirds of PVM's speedup.
func TestPaperScaleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	a := newApp(Paper())
	seq := run(t, core.Seq, a, 1)
	pvmRes := run(t, core.PVM, a, 8)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	tmkRes := run(t, core.TMK, a, 8)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	sp := seq.Time.Seconds() / pvmRes.Time.Seconds()
	st := seq.Time.Seconds() / tmkRes.Time.Seconds()
	if st >= sp {
		t.Logf("note: tmk speedup %.2f >= pvm %.2f (search anomaly)", st, sp)
	}
	if st < 0.4*sp {
		t.Fatalf("tmk speedup %.2f below 40%% of pvm %.2f", st, sp)
	}
}

// The paper observes TSP processes spending a large fraction of their
// time waiting at lock acquires (get_tour contention).
func TestLockWaitDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	res := run(t, core.TMK, newApp(Paper()), 8)
	frac := res.LockWait.Seconds() / (res.Time.Seconds() * 8)
	if frac < 0.05 {
		t.Fatalf("lock wait fraction %.3f: expected significant get_tour contention", frac)
	}
	if frac > 0.95 {
		t.Fatalf("lock wait fraction %.3f implausibly high", frac)
	}
}

// refSolver is the search as it stood before the closure-free rewrite,
// kept verbatim as the reference the production kernel is differenced
// against: a nested distance matrix, a recursive closure over
// visited/buf/best, a scan of all n cities per level, the node count
// through a pointer.
type refSolver struct {
	cfg  Config
	d    [][]int32
	minE []int32
}

func refDist(c Config) [][]int32 {
	sm := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	xs := make([]float64, c.Cities)
	ys := make([]float64, c.Cities)
	for i := 0; i < c.Cities; i++ {
		xs[i] = float64(sm(c.Seed+uint64(2*i))%1000) / 10
		ys[i] = float64(sm(c.Seed+uint64(2*i+1))%1000) / 10
	}
	d := make([][]int32, c.Cities)
	for i := range d {
		d[i] = make([]int32, c.Cities)
		for j := range d[i] {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			d[i][j] = int32(math.Round(math.Sqrt(dx*dx + dy*dy)))
		}
	}
	return d
}

func (s *refSolver) recursiveSolve(path []int32, length int32, best int32, nodes *int64) int32 {
	n := s.cfg.Cities
	visited := uint32(0)
	for _, c := range path {
		visited |= 1 << uint(c)
	}
	var rec func(last int32, length int32)
	buf := append([]int32(nil), path...)
	rec = func(last int32, length int32) {
		*nodes++
		if len(buf) == n {
			total := length + s.d[last][buf[0]]
			if total < best {
				best = total
			}
			return
		}
		for c := int32(0); c < int32(n); c++ {
			if visited&(1<<uint(c)) != 0 {
				continue
			}
			nl := length + s.d[last][c]
			if nl+s.minE[c] >= best {
				continue
			}
			visited |= 1 << uint(c)
			buf = append(buf, c)
			rec(c, nl)
			buf = buf[:len(buf)-1]
			visited &^= 1 << uint(c)
		}
	}
	rec(path[len(path)-1], length)
	return best
}

// hasZeroEdge reports whether two cities of d round to one point: an
// edge of length 0, which makes minE 0 at both of its ends.
func hasZeroEdge(d [][maxCities]int32) bool {
	for i := range d {
		for j := range i {
			if d[i][j] == 0 {
				return true
			}
		}
	}
	return false
}

// TestRecursiveSolveMatchesReferenceProperty: over random instances,
// prefixes and incoming bounds the kernel must return the reference's
// best and — because it is charged as modeled time — its exact node
// count.  The instances run from 5 to 32 cities, the large ones also
// with coincident cities (d = 0, minE = 0); the bounds include those
// that put the slack best-length at the ends of the live table (0, top,
// top+1 and past it).
func TestRecursiveSolveMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16180))
	for iter := 0; iter < 1000; iter++ {
		cfg := Config{Cities: 5 + rng.Intn(9), Seed: rng.Uint64()}
		if iter >= 400 {
			cfg.Cities = 20 + rng.Intn(13)
		}
		if iter >= 700 {
			for !hasZeroEdge(cfg.dist()) {
				cfg.Seed = rng.Uint64()
			}
		}
		s := newSolver(cfg)
		ref := &refSolver{cfg: cfg, d: refDist(cfg), minE: s.minE[:]}
		for i, row := range ref.d {
			for j, v := range row {
				if got := s.d[i][j]; got != v {
					t.Fatalf("iter %d: d[%d][%d] = %d, reference %d", iter, i, j, got, v)
				}
			}
		}
		// A random prefix: any start city, any length up to the full
		// tour (nothing left to search), but at most seven cities open
		// so an unpruned search stays small.
		perm := rng.Perm(cfg.Cities)
		minLen := 1
		if cfg.Cities > 8 {
			minLen = cfg.Cities - 7
		}
		path := make([]int32, minLen+rng.Intn(cfg.Cities-minLen+1))
		var length int32
		for i := range path {
			path[i] = int32(perm[i])
			if i > 0 {
				length += ref.d[path[i-1]][path[i]]
			}
		}
		// Incoming bounds from "prunes everything" to "prunes nothing".
		var best int32
		switch rng.Intn(9) {
		case 0:
			best = 0
		case 1:
			best = length
		case 2:
			best = length + int32(rng.Intn(60*(cfg.Cities-len(path)+1)))
		case 3:
			best = s.greedy()
		case 4:
			best = math.MaxInt32
		case 5:
			best = length + s.top
		case 6:
			best = length + s.top + 1
		case 7:
			best = length + s.top + 2
		case 8:
			best = length + 1 + int32(rng.Intn(int(s.top)+1))
		}
		var wantNodes int64
		wantBest := ref.recursiveSolve(path, length, best, &wantNodes)
		gotBest, gotNodes := s.recursiveSolve(path, length, best)
		if gotBest != wantBest || gotNodes != wantNodes {
			t.Fatalf("iter %d: %d cities, path %v, length %d, best %d: got (best %d, nodes %d), reference (best %d, nodes %d)",
				iter, cfg.Cities, path, length, best, gotBest, gotNodes, wantBest, wantNodes)
		}
	}
}

// BenchmarkRecursiveSolve runs the kernel over the paper instance's root
// subtours — every path of returnLen cities from city 0, in city order,
// the bound starting at the greedy tour and carried from one subtour to
// the next — so one iteration is a fixed number of nodes.
func BenchmarkRecursiveSolve(b *testing.B) {
	cfg := Paper()
	s := newSolver(cfg)
	type tour struct {
		path   []int32
		length int32
	}
	var tours []tour
	var extend func(path []int32, visited uint32, length int32)
	extend = func(path []int32, visited uint32, length int32) {
		if len(path) == cfg.returnLen() {
			tours = append(tours, tour{append([]int32(nil), path...), length})
			return
		}
		for c := int32(0); c < int32(cfg.Cities); c++ {
			if visited&(1<<uint(c)) == 0 {
				extend(append(path, c), visited|1<<uint(c), length+s.d[path[len(path)-1]][c])
			}
		}
	}
	extend([]int32{0}, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int64
	for i := 0; i < b.N; i++ {
		best := s.greedy()
		nodes = 0
		for _, tr := range tours {
			var k int64
			best, k = s.recursiveSolve(tr.path, tr.length, best)
			nodes += k
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
}

// small returns a CI-sized instance.
func small() Config {
	return Config{Cities: 11, Threshold: 7, Seed: 16180,
		NodeCost: 900 * sim.Nanosecond, BoundCost: 3 * sim.Microsecond,
		QueueCost: 1500 * sim.Nanosecond}
}
