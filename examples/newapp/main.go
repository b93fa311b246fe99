// Porting template: how to take your own kernel — here a blocked
// matrix-vector iteration — and register it as a core.App, the way the
// nine paper applications are registered under internal/apps.  One App
// implementation gives you every backend (sequential, TreadMarks, PVM,
// and derived variants) and every scenario (processor counts, page
// sizes, link speeds) for free: the experiment surface is data.
//
// The recipe:
//
//  1. Put the per-run configuration in a struct and embed it in an app
//     type that will also carry the outputs.
//  2. Seq: the plain sequential kernel charging model time (ctx.Compute).
//  3. SetupTMK/TMK: put the data other processors must see in shared
//     memory (Malloc + Init*), express synchronization as locks and
//     barriers, and let the DSM move the data.
//  4. SetupPVM/PVM (+ Master for master/slave apps): keep everything
//     private, and pack/send exactly what each process needs.
//  5. Check: compare the parallel output against the sequential run.
//
// Run with:
//
//	go run ./examples/newapp
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

const (
	size  = 1024 // matrix dimension
	iters = 4
	// Per multiply-add on the modeled 1995 workstation.
	flopCost = 100 * sim.Nanosecond
)

// row i of the deterministic test matrix.
func matRow(i int) []float64 {
	row := make([]float64, size)
	for j := range row {
		row[j] = float64((i*31+j*17)%97) / 97
	}
	return row
}

func initVec() []float64 {
	v := make([]float64, size)
	for i := range v {
		v[i] = float64(i%13) / 13
	}
	return v
}

// normalize keeps values bounded across iterations (power iteration).
func normalize(v []float64) {
	max := 1e-12
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	for i := range v {
		v[i] /= max
	}
}

func checksum(v []float64) float64 {
	s := 0.0
	for i, x := range v {
		s += x * float64(i%7+1)
	}
	return s
}

func span(id, n int) (int, int) { return id * size / n, (id + 1) * size / n }

// matvec implements core.App: the tenth application.
type matvec struct {
	vecA tmk.Addr // shared vector of the current TreadMarks run

	seqSum, parSum float64
	hasSeq, hasPar bool
}

func (a *matvec) Name() string    { return "MatVec" }
func (a *matvec) Figure() int     { return 0 } // not a paper figure
func (a *matvec) Problem() string { return fmt.Sprintf("%dx%d f64, %d iters", size, size, iters) }

// Clone (required by core.App) hands the grid's worker pool an isolated
// instance per run: same configuration, no run state.
func (a *matvec) Clone() core.App { return &matvec{} }

func (a *matvec) Check() error {
	if !a.hasSeq || !a.hasPar {
		return fmt.Errorf("matvec: Check needs a sequential and a parallel run")
	}
	if a.seqSum != a.parSum {
		return fmt.Errorf("matvec: checksum %v vs %v", a.parSum, a.seqSum)
	}
	return nil
}

// Step 2: the sequential kernel.
func (a *matvec) Seq(ctx *sim.Ctx) {
	x := initVec()
	y := make([]float64, size)
	for it := 0; it < iters; it++ {
		for i := 0; i < size; i++ {
			row := matRow(i)
			acc := 0.0
			for j := range row {
				acc += row[j] * x[j]
			}
			y[i] = acc
		}
		ctx.Compute(sim.Time(size*size) * flopCost)
		normalize(y)
		x, y = y, x
	}
	a.seqSum = checksum(x)
	a.hasSeq = true
}

// Step 3: the TreadMarks version: the vector is shared; each processor
// computes a band of rows and barriers between iterations.
func (a *matvec) SetupTMK(sys *tmk.System) {
	a.parSum, a.hasPar = 0, false
	a.vecA = sys.Malloc(8 * size)
	sys.InitF64(a.vecA, initVec())
}

func (a *matvec) TMK(p *tmk.Proc) {
	lo, hi := span(p.ID(), p.N())
	vec := p.F64Array(a.vecA, size)
	x := make([]float64, size)
	y := make([]float64, hi-lo)
	for it := 0; it < iters; it++ {
		vec.Load(x, 0, size) // remote bands fault in
		for i := lo; i < hi; i++ {
			row := matRow(i)
			acc := 0.0
			for j := range row {
				acc += row[j] * x[j]
			}
			y[i-lo] = acc
		}
		p.Compute(sim.Time((hi-lo)*size) * flopCost)
		// Everyone needs the global maximum before normalizing, so
		// publish raw results first.
		vec.Store(y, lo)
		p.Barrier(2 * it)
		vec.Load(x, 0, size)
		normalize(x)
		vec.Store(x[lo:hi], lo)
		p.Barrier(2*it + 1)
	}
	if p.ID() == 0 {
		vec.Load(x, 0, size)
		a.parSum = checksum(x)
		a.hasPar = true
	}
}

// Step 4: the PVM version: each process owns a band and broadcasts its
// piece after every iteration.
func (a *matvec) SetupPVM(sys *pvm.System) {
	a.parSum, a.hasPar = 0, false
}

func (a *matvec) PVM(p *pvm.Proc) {
	lo, hi := span(p.ID(), p.N())
	x := initVec()
	for it := 0; it < iters; it++ {
		y := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			row := matRow(i)
			acc := 0.0
			for j := range row {
				acc += row[j] * x[j]
			}
			y[i-lo] = acc
		}
		p.Compute(sim.Time((hi-lo)*size) * flopCost)
		if p.N() > 1 {
			b := p.InitSend()
			b.PackFloat64(y, len(y), 1)
			p.Bcast(1)
			copy(x[lo:hi], y)
			for got := 0; got < p.N()-1; got++ {
				r := p.Recv(-1, 1)
				qlo, qhi := span(r.Src(), p.N())
				r.UnpackFloat64(x[qlo:qhi], qhi-qlo, 1)
			}
		} else {
			copy(x[lo:hi], y)
		}
		normalize(x)
	}
	if p.ID() == 0 {
		a.parSum = checksum(x)
		a.hasPar = true
	}
}

func (a *matvec) Master() func(*pvm.Proc) { return nil } // no master process

func main() {
	app := &matvec{}

	// Step 5 in action: the sequential baseline, then both systems at
	// several processor counts, checking outputs after every run.  The
	// scenario list is data — swapping in a page-size sweep or a slower
	// link is an edit here, not in the app.
	if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential: checksum %.6f\n", app.seqSum)

	for _, n := range []int{2, 4, 8} {
		sc := core.Base(n)
		tres, err := core.TMK.Run(app, sc)
		if err != nil {
			log.Fatal(err)
		}
		if err := app.Check(); err != nil {
			log.Fatal(err)
		}
		pres, err := core.PVM.Run(app, sc)
		if err != nil {
			log.Fatal(err)
		}
		if err := app.Check(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("n=%d: tmk %v (%d msgs)  pvm %v (%d msgs)\n",
			n, tres.Time, tres.Net.Messages, pres.Time, pres.Net.Messages)
	}

	// A scenario ablation, still with zero app changes: TreadMarks on
	// 1 KB pages.
	small := core.Base(8)
	small.Name = "page=1024"
	small.DSM.PageSize = 1024
	res, err := core.TMK.Run(app, small)
	if err != nil {
		log.Fatal(err)
	}
	if err := app.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tmk on 1KB pages: %v (%d msgs)\n", res.Time, res.Net.Messages)
	fmt.Println("all versions agree")
}
