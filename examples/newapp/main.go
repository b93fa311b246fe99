// Porting template: how to take your own kernel — here a blocked
// matrix-vector iteration — and register it as a core.App, the way the
// nine paper applications are registered under internal/apps.  One
// core.Program gives you every backend (sequential, TreadMarks, PVM, and
// derived variants) and every scenario (processor counts, page sizes,
// link speeds) for free: the experiment surface is data.
//
// The recipe:
//
//  1. Put the configuration in a program type; it holds nothing a run
//     writes.  Give the output a type whose Check compares a parallel
//     output against the sequential one.
//  2. Seq: the plain sequential kernel charging model time
//     (ctx.Compute), returning its output.
//  3. TMK: put the data other processors must see in shared memory
//     (Malloc + Init*), then return the per-processor body — express
//     synchronization as locks and barriers, and let the DSM move the
//     data — and the run's output.
//  4. PVM: return the per-process body (+ a master body for master/slave
//     apps) and the run's output: keep everything private, and pack/send
//     exactly what each process needs.  Whatever a run collects lives in
//     variables its setup declares, so runs never share state.
//  5. core.NewApp wraps the program; its Check compares the latest
//     parallel output against the sequential run.
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

// sum is matvec's output: the final vector's checksum.
type sum float64

func (s sum) Check(par sum) error {
	if s != par {
		return fmt.Errorf("matvec: checksum %v vs %v", par, s)
	}
	return nil
}

// matvec is the core.Program of the tenth application.
type matvec struct{}

func (matvec) Name() string    { return "MatVec" }
func (matvec) Figure() int     { return 0 } // not a paper figure
func (matvec) Problem() string { return fmt.Sprintf("%dx%d f64, %d iters", size, size, iters) }

// Step 2: the sequential kernel.
func (matvec) Seq(ctx *sim.Ctx) sum {
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
	return sum(checksum(x))
}

// Step 3: the TreadMarks version: the vector is shared; each processor
// computes a band of rows and barriers between iterations.
func (matvec) TMK(sys *tmk.System) (func(*tmk.Proc), func() sum) {
	vecA := sys.Malloc(8 * size)
	sys.InitF64(vecA, initVec())
	var out sum
	return func(p *tmk.Proc) {
		lo, hi := span(p.ID(), p.N())
		vec := p.F64Array(vecA, size)
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
			out = sum(checksum(x))
		}
	}, func() sum { return out }
}

// Step 4: the PVM version: each process owns a band and broadcasts its
// piece after every iteration.
func (matvec) PVM(sys *pvm.System) (func(*pvm.Proc), func(*pvm.Proc), func() sum) {
	var out sum
	return func(p *pvm.Proc) {
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
			out = sum(checksum(x))
		}
	}, nil, func() sum { return out } // no master process
}

func main() {
	app := core.NewApp(matvec{})

	// Step 5 in action: the sequential baseline, then both systems at
	// several processor counts, checking outputs after every run.  The
	// scenario list is data — swapping in a page-size sweep or a slower
	// link is an edit here, not in the app.
	sres, err := core.Seq.Run(app, core.Base(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential: %v\n", sres.Time)

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
