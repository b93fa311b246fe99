package barnes

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestTreeInvariants(t *testing.T) {
	cfg := Small()
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
func run(t *testing.T, b core.Backend, a *app, n int) core.Result {
	t.Helper()
	res, err := b.Run(a, core.Base(n))
	if err != nil {
		t.Fatalf("%s n=%d: %v", b.Name(), n, err)
	}
	return res
}

func TestSeqDeterministic(t *testing.T) {
	a := &app{cfg: Small()}
	run(t, core.Seq, a, 1)
	first := a.seqOut
	run(t, core.Seq, a, 1)
	if err := first.Check(a.seqOut); err != nil {
		t.Fatal(err)
	}
	if first.Sum == 0 {
		t.Fatal("degenerate checksum")
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	a := &app{cfg: Small()}
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 4, 8} {
		run(t, core.TMK, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPVMMatchesSequential(t *testing.T) {
	a := &app{cfg: Small()}
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
	a := &app{cfg: Paper()}
	a.cfg.Steps = 4 // step 1 reads preloaded data: no TreadMarks traffic
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
	steady := float64(pvmRes.Net.Bytes) * float64(a.cfg.Steps-1) / float64(a.cfg.Steps)
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
	a := &app{cfg: Paper()}
	a.cfg.Steps = 3
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
// two-body leaf — the kernel must add bit-identical accelerations and
// count the same interactions as the reference.
func TestForceMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(667430))
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
			start := [3]float64{rng.NormFloat64(), rng.NormFloat64(), 0}
			want, got := start, start
			wantN := refForce(tr, i, theta, &want)
			gotN := tr.force(i, theta, &got)
			if gotN != wantN {
				t.Fatalf("iter %d: n=%d theta=%v body %d: %d interactions, reference %d", iter, n, theta, i, gotN, wantN)
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("iter %d: n=%d theta=%v body %d: acc[%d] = %x, reference %x",
						iter, n, theta, i, k, math.Float64bits(got[k]), math.Float64bits(want[k]))
				}
			}
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
