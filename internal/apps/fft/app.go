package fft

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app implements core.App.
type app struct {
	cfg Config

	aA, bA tmk.Addr // shared array buffers of the current TreadMarks run

	parOut Output // accumulated per-processor plane checksums
	seqOut Output
	hasSeq bool
	hasPar bool
}

// NewApp wraps a 3D-FFT configuration as a registrable experiment.
func NewApp(cfg Config) core.App { return &app{cfg: cfg} }

// Clone returns a fresh instance with the same configuration and no run
// state, so grid workers can run copies concurrently (core.Cloneable).
func (a *app) Clone() core.App { return &app{cfg: a.cfg} }

// Apps returns this package's registry entry (Figure 11) at the given
// workload scale.  The cube edge does not shrink linearly; quick mode
// swaps in a smaller power-of-two edge.
func Apps(scale float64) []core.App {
	cfg := Paper()
	if scale < 1 {
		cfg.N = 16
	}
	cfg.Iters = core.Scaled(cfg.Iters, scale, 2)
	return []core.App{&app{cfg: cfg}}
}

// BigApps returns the registry entry for the bigp scenario family: a
// 32^3 cube over two iterations.  The plane distribution hands out 32
// planes, so processors beyond 32 idle — the honest answer for an app
// whose decomposition axis is a cube edge.
func BigApps(scale float64) []core.App {
	cfg := Paper()
	cfg.N, cfg.Iters = 32, 2
	if scale < 1 {
		cfg.N = 16
	}
	return []core.App{&app{cfg: cfg}}
}

func (a *app) Name() string { return "3D-FFT" }
func (a *app) Figure() int  { return 11 }

func (a *app) Problem() string {
	return fmt.Sprintf("%d^3 complex, %d iters", a.cfg.N, a.cfg.Iters)
}

// addSum folds one processor's partial checksum into the collector;
// integer addition commutes, so any accumulation order gives the same
// output.
func (a *app) addSum(v int64) { a.parOut.Sum += v }

func (a *app) Check() error {
	if !a.hasSeq || !a.hasPar {
		return fmt.Errorf("fft: Check needs a sequential and a parallel run")
	}
	return a.seqOut.Check(a.parOut)
}

func (a *app) Seq(ctx *sim.Ctx) {
	cfg := a.cfg
	n := cfg.N
	prev := cfg.initData(0, 2*cfg.points())
	cur := make([]float64, len(prev))
	for it := 0; it < cfg.Iters; it++ {
		// Transpose by rotation: cur[x][y][z] = prev[z][x][y].
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < n; z++ {
					si := 2 * ((z*n+x)*n + y)
					di := 2 * ((x*n+y)*n + z)
					cur[di], cur[di+1] = prev[si], prev[si+1]
				}
			}
		}
		ctx.Compute(passes(cfg, cur, 0, n, it))
		prev, cur = cur, prev
	}
	a.seqOut.Sum = chunkChecksum(prev, 0)
	a.hasSeq = true
}

func (a *app) SetupTMK(sys *tmk.System) {
	a.parOut, a.hasPar = Output{}, true
	cfg := a.cfg
	a.aA = sys.MallocPageAligned(16 * cfg.points())
	a.bA = sys.MallocPageAligned(16 * cfg.points())
	sys.InitF64(a.aA, cfg.initData(0, 2*cfg.points()))
}

// TMK: both array buffers are shared.  Each iteration a processor reads
// the source planes it needs (remote pages fault in diff by diff), writes
// its own planes of the destination, runs the local FFT passes in the same
// interval, and waits at the barrier.
func (a *app) TMK(p *tmk.Proc) {
	cfg := a.cfg
	n := cfg.N
	nprocs := p.N()
	lo, hi := span(n, nprocs, p.ID())
	av := p.F64Array(a.aA, 2*cfg.points())
	bv := p.F64Array(a.bA, 2*cfg.points())
	plane := 2 * n * n
	local := make([]float64, (hi-lo)*plane)
	row := make([]float64, 2*n)
	for it := 0; it < cfg.Iters; it++ {
		src, dst := av, bv
		if it%2 == 1 {
			src, dst = bv, av
		}
		// Transpose own destination planes: local[x][y][z] =
		// src[z][x][y].  Row (z,x,*) is contiguous in src.
		for x := lo; x < hi; x++ {
			for z := 0; z < n; z++ {
				src.Load(row, 2*((z*n+x)*n), 2*((z*n+x)*n)+2*n)
				for y := 0; y < n; y++ {
					di := (x-lo)*plane + 2*((y*n)+z)
					local[di], local[di+1] = row[2*y], row[2*y+1]
				}
			}
		}
		p.Compute(passes(cfg, local, lo, hi, it))
		dst.Store(local, lo*plane)
		p.Barrier(it)
	}
	// Verification: checksum own planes of the final buffer.
	fl := av
	if cfg.Iters%2 == 1 {
		fl = bv
	}
	fl.Load(local, lo*plane, hi*plane)
	a.addSum(chunkChecksum(local, lo*plane))
}

func (a *app) SetupPVM(sys *pvm.System) {
	a.parOut, a.hasPar = Output{}, true
}

// PVM message tag.
const tagBlock = 1

// PVM: the transpose is performed by explicitly sending each processor
// the block of planes it will own.
func (a *app) PVM(p *pvm.Proc) {
	cfg := a.cfg
	n := cfg.N
	nprocs := p.N()
	lo, hi := span(n, nprocs, p.ID())
	plane := 2 * n * n
	// Own planes of the previous layout (z is the old first dim).
	prev := cfg.initData(lo*plane, hi*plane)
	cur := make([]float64, (hi-lo)*plane)
	for it := 0; it < cfg.Iters; it++ {
		// Iteration-distinct tag: the wildcard receive must not conflate
		// a delayed peer's block with a faster peer's next-iteration one.
		tag := tagBlock + it
		// Send each destination owner the block src[z][x][y] for z in
		// my planes, x in theirs, all y.
		for q := 0; q < nprocs; q++ {
			if q == p.ID() {
				continue
			}
			qlo, qhi := span(n, nprocs, q)
			blk := make([]float64, 0, 2*(hi-lo)*(qhi-qlo)*n)
			for z := lo; z < hi; z++ {
				for x := qlo; x < qhi; x++ {
					base := (z-lo)*plane + 2*(x*n)
					blk = append(blk, prev[base:base+2*n]...)
				}
			}
			b := p.InitSend()
			b.PackFloat64(blk, len(blk), 1)
			p.Send(q, tag)
		}
		// Scatter my own contribution: cur[x][y][z] = prev[z][x][y].
		for z := lo; z < hi; z++ {
			for x := lo; x < hi; x++ {
				for y := 0; y < n; y++ {
					si := (z-lo)*plane + 2*((x*n)+y)
					di := (x-lo)*plane + 2*((y*n)+z)
					cur[di], cur[di+1] = prev[si], prev[si+1]
				}
			}
		}
		// Receive and scatter the other blocks.
		for recvd := 0; recvd < nprocs-1; recvd++ {
			r := p.Recv(-1, tag)
			qlo, qhi := span(n, nprocs, r.Src())
			blk := make([]float64, 2*(qhi-qlo)*(hi-lo)*n)
			r.UnpackFloat64(blk, len(blk), 1)
			bi := 0
			for z := qlo; z < qhi; z++ {
				for x := lo; x < hi; x++ {
					for y := 0; y < n; y++ {
						di := (x-lo)*plane + 2*((y*n)+z)
						cur[di], cur[di+1] = blk[bi], blk[bi+1]
						bi += 2
					}
				}
			}
		}
		p.Compute(passes(cfg, cur, lo, hi, it))
		prev, cur = cur, prev
	}
	a.addSum(chunkChecksum(prev, lo*plane))
}

func (a *app) Master() func(*pvm.Proc) { return nil }
