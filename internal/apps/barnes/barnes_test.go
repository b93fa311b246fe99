package barnes

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestTreeInvariants(t *testing.T) {
	cfg := small()
	bodies := cfg.initBodies()
	tr := buildTree(bodies, cfg.Bodies)
	if tr.built != cfg.Bodies {
		t.Fatalf("built %d, want %d", tr.built, cfg.Bodies)
	}
	if tr.root.nbody != cfg.Bodies {
		t.Fatalf("root count %d", tr.root.nbody)
	}
	// Total mass is preserved.
	if diff := tr.root.mass - 1.0; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("root mass %v, want 1", tr.root.mass)
	}
	leaves := tr.leavesInOrder(tr.root, nil)
	if len(leaves) != cfg.Bodies {
		t.Fatalf("%d leaves, want %d", len(leaves), cfg.Bodies)
	}
	seen := map[int]bool{}
	for _, b := range leaves {
		if seen[b] {
			t.Fatalf("body %d appears twice", b)
		}
		seen[b] = true
	}
}

func TestCostzonePartition(t *testing.T) {
	leaves := make([]int, 100)
	for i := range leaves {
		leaves[i] = i * 3
	}
	total := 0
	for id := 0; id < 8; id++ {
		total += len(costzone(leaves, 8, id))
	}
	if total != 100 {
		t.Fatalf("partition covers %d, want 100", total)
	}
}

// run runs a on backend b at n processors, failing the test on error.
func run(t *testing.T, b core.Backend, a core.App, n int) core.Result {
	t.Helper()
	res, err := b.Run(a, core.Base(n))
	if err != nil {
		t.Fatalf("%s n=%d: %v", b.Name(), n, err)
	}
	return res
}

// newApp wraps cfg's program as an App.
func newApp(cfg Config) core.App { return core.NewApp(&app{cfg: cfg}) }

// seq runs a's sequential program alone and returns its output.
func seq(t *testing.T, a *app) Output {
	t.Helper()
	var out Output
	if _, err := core.RunSeq(func(ctx *sim.Ctx) { out = a.Seq(ctx) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSeqDeterministic(t *testing.T) {
	a := &app{cfg: small()}
	first := seq(t, a)
	if err := first.Check(seq(t, a)); err != nil {
		t.Fatal(err)
	}
	if first.Sum == 0 {
		t.Fatal("degenerate checksum")
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

// The paper: TreadMarks sends far more messages than PVM (false sharing
// in the scattered update phase → diff requests to several processors),
// and somewhat more data.
func TestFalseSharingDrivesMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := Paper()
	cfg.Steps = 4 // step 1 reads preloaded data: no TreadMarks traffic
	a := newApp(cfg)
	const n = 8
	pvmRes := run(t, core.PVM, a, n)
	tmkRes := run(t, core.TMK, a, n)
	if tmkRes.Net.Messages < 3*pvmRes.Net.Messages {
		t.Errorf("message ratio %.1f (tmk=%d pvm=%d), want large",
			float64(tmkRes.Net.Messages)/float64(pvmRes.Net.Messages),
			tmkRes.Net.Messages, pvmRes.Net.Messages)
	}
	// Per steady-state step TreadMarks moves at least as much data as PVM
	// (false sharing brings in unwanted bytes); TreadMarks pays nothing on
	// the first (preloaded) step, hence the (Steps-1)/Steps factor.
	steady := float64(pvmRes.Net.Bytes) * float64(cfg.Steps-1) / float64(cfg.Steps)
	if float64(tmkRes.Net.Bytes) < 0.9*steady {
		t.Errorf("tmk bytes %d below steady-state parity %.0f with pvm",
			tmkRes.Net.Bytes, steady)
	}
}

// Both systems speed up poorly (low compute/communication ratio), with
// TreadMarks behind PVM.
func TestPaperScaleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := Paper()
	cfg.Steps = 3
	a := newApp(cfg)
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
	if sp > 6.5 || st > 6.5 {
		t.Errorf("speedups pvm=%.2f tmk=%.2f: paper reports poor scaling here", sp, st)
	}
	if st >= sp {
		t.Errorf("tmk speedup %.2f should trail pvm %.2f", st, sp)
	}
}

// refForce is the traversal as it stood before the closure-free rewrite,
// kept verbatim as the reference the production kernel is differenced
// against.
func refForce(t *tree, i int, theta float64, acc *[3]float64) int {
	p := t.bodyPos(i)
	interactions := 0
	const soft = 0.01
	var walk func(c *cell)
	walk = func(c *cell) {
		if c == nil || c.nbody == 0 {
			return
		}
		if c.leaf && c.body == i && c.nbody == 1 {
			return
		}
		var d [3]float64
		r2 := 0.0
		for k := 0; k < 3; k++ {
			d[k] = c.com[k] - p[k]
			r2 += d[k] * d[k]
		}
		if c.leaf || c.size*c.size < theta*theta*r2 {
			interactions++
			if r2 == 0 {
				return
			}
			inv := c.mass / ((r2 + soft) * math.Sqrt(r2+soft))
			for k := 0; k < 3; k++ {
				acc[k] += inv * d[k]
			}
			return
		}
		for _, k := range c.kids {
			walk(k)
		}
	}
	walk(t.root)
	return interactions
}

// TestForceMatchesReferenceProperty: for every body of random clustered
// sets — coincident bodies included, which end in the degenerate
// two-body leaf — and of the paper's 8192-body set at θ = 0.7, as
// initialized and after one integrated step, the kernel must add
// bit-identical accelerations and count the same interactions as the
// reference.
func TestForceMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(667430))
	// same checks body i's force from tr against the reference, both
	// added to start, and returns the acceleration.
	same := func(what string, tr *tree, i int, theta float64, start [3]float64) [3]float64 {
		t.Helper()
		want, got := start, start
		wantN := refForce(tr, i, theta, &want)
		gotN := tr.force(i, theta, &got)
		if gotN != wantN {
			t.Fatalf("%s: n=%d theta=%v body %d: %d interactions, reference %d", what, tr.n, theta, i, gotN, wantN)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: n=%d theta=%v body %d: acc[%d] = %x, reference %x",
					what, tr.n, theta, i, k, math.Float64bits(got[k]), math.Float64bits(want[k]))
			}
		}
		return got
	}
	thetas := []float64{0, 0.3, 0.7, 1, 2.5}
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(300)
		bodies := make([]float64, stride*n)
		centers := make([][3]float64, 1+rng.Intn(4))
		for c := range centers {
			for k := range centers[c] {
				centers[c][k] = 8*rng.Float64() - 4
			}
		}
		for i := 0; i < n; i++ {
			if i > 0 && rng.Intn(8) == 0 {
				// Coincident with an earlier body.
				j := rng.Intn(i)
				copy(bodies[stride*i:stride*i+3], bodies[stride*j:stride*j+3])
			} else {
				ctr := centers[rng.Intn(len(centers))]
				spread := math.Pow(10, -3*rng.Float64())
				for k := 0; k < 3; k++ {
					bodies[stride*i+k] = ctr[k] + spread*rng.NormFloat64()
				}
			}
			bodies[stride*i+6] = rng.Float64() / float64(n)
		}
		tr := buildTree(bodies, n)
		theta := thetas[rng.Intn(len(thetas))]
		for i := 0; i < n; i++ {
			same(fmt.Sprintf("iter %d", iter), tr, i, theta, [3]float64{rng.NormFloat64(), rng.NormFloat64(), 0})
		}
	}
	cfg := Paper()
	bodies := cfg.initBodies()
	for step := 0; step < 2; step++ {
		tr := buildTree(bodies, cfg.Bodies)
		accs := make([][3]float64, cfg.Bodies)
		for i := range accs {
			accs[i] = same(fmt.Sprintf("paper step %d", step), tr, i, cfg.Theta, [3]float64{})
		}
		for i, acc := range accs {
			integrate(bodies, i, acc)
		}
	}
}

// TestTreeShareExact: a run's processors share a tree only across
// snapshots with the same bits.  Snapshots that differ in the sign of
// one zero coordinate, or by one ulp, get distinct trees; equal
// snapshots get the same *tree, even after the processor that built it
// integrates its bodies in place; and every tree the share hands out
// gives the insertion count, leaf order and forces, bit for bit, of
// buildTree over the caller's own snapshot.
func TestTreeShareExact(t *testing.T) {
	cfg := small()
	base := cfg.initBodies()
	base[stride*3] = 0 // a zero x coordinate, of either sign below
	negZero := append([]float64(nil), base...)
	negZero[stride*3] = math.Copysign(0, -1)
	ulp := append([]float64(nil), base...)
	ulp[stride*5+1] = math.Nextafter(ulp[stride*5+1], math.Inf(1))

	// exact fails unless tr, handed out for bodies, matches a tree built
	// from bodies alone.
	exact := func(what string, tr *tree, leaves []int, bodies []float64) {
		t.Helper()
		own := buildTree(append([]float64(nil), bodies...), cfg.Bodies)
		if tr.built != own.built || !slices.Equal(leaves, own.leavesInOrder(own.root, nil)) {
			t.Fatalf("%s: built %d, leaves differ from own tree's (built %d)", what, tr.built, own.built)
		}
		for i := 0; i < cfg.Bodies; i++ {
			var got, want [3]float64
			gotN, wantN := tr.force(i, cfg.Theta, &got), own.force(i, cfg.Theta, &want)
			for k := range got {
				if gotN != wantN || math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s: body %d: %d interactions, acc %v; own tree %d, %v", what, i, gotN, got, wantN, want)
				}
			}
		}
	}

	var s treeShare
	first := append([]float64(nil), base...)
	t0, l0 := s.get(first, cfg.Bodies)
	exact("first", t0, l0, base)
	// The builder integrates in place; an equal snapshot from another
	// processor still gets the run's tree.
	for i := 0; i < cfg.Bodies; i++ {
		integrate(first, i, [3]float64{1, 1, 1})
	}
	if tr, _ := s.get(append([]float64(nil), base...), cfg.Bodies); tr != t0 {
		t.Fatal("an equal snapshot got a new tree")
	}
	for _, c := range []struct {
		name   string
		bodies []float64
	}{{"sign of zero", negZero}, {"one ulp", ulp}} {
		tr, leaves := s.get(c.bodies, cfg.Bodies)
		if tr == t0 {
			t.Fatalf("%s: shared the tree of a different snapshot", c.name)
		}
		exact(c.name, tr, leaves, c.bodies)
		if again, _ := s.get(append([]float64(nil), c.bodies...), cfg.Bodies); again != tr {
			t.Fatalf("%s: an equal snapshot got a new tree", c.name)
		}
		// Back to the first snapshot: the share must not hand out the
		// tree just built.
		if back, _ := s.get(base, cfg.Bodies); back == tr {
			t.Fatalf("%s: the first snapshot got the tree of %s", c.name, c.name)
		}
	}
}

// BenchmarkForce is one body's tree traversal over the paper's initial
// body set, the bodies taken in index order.
func BenchmarkForce(b *testing.B) {
	cfg := Paper()
	tr := buildTree(cfg.initBodies(), cfg.Bodies)
	b.ReportAllocs()
	b.ResetTimer()
	inter := 0
	for i := 0; i < b.N; i++ {
		var acc [3]float64
		inter += tr.force(i%cfg.Bodies, cfg.Theta, &acc)
	}
	b.ReportMetric(float64(inter)/float64(b.N), "interactions/op")
}

// BenchmarkBuildTree is one MakeTree over the same set: the slab's work.
func BenchmarkBuildTree(b *testing.B) {
	cfg := Paper()
	bodies := cfg.initBodies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildTree(bodies, cfg.Bodies)
	}
}

// small returns a CI-sized problem.
func small() Config {
	return Config{Bodies: 256, Steps: 3, Theta: 0.7, Seed: 667430,
		InteractCost: 3 * sim.Microsecond, TreeCost: 8 * sim.Microsecond,
		UpdateCost: 3 * sim.Microsecond}
}
