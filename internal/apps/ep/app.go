package ep

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app implements core.App: the bodies the backends run, plus output
// capture for verification.
type app struct {
	cfg Config

	seqOut Output
	parOut Output
	hasSeq bool
	hasPar bool
}

func newApp(cfg Config) *app { return &app{cfg: cfg} }

// Clone returns a fresh instance with the same configuration and no run
// state, so grid workers can run copies concurrently (core.Cloneable).
func (a *app) Clone() core.App { return newApp(a.cfg) }

// Apps returns this package's registry entry (Figure 1) at the given
// workload scale (1.0 = paper scale).
func Apps(scale float64) []core.App {
	cfg := Paper()
	cfg.Pairs = core.Scaled(cfg.Pairs, scale, 1<<12)
	return []core.App{newApp(cfg)}
}

// BigApps returns the registry entry for the bigp scenario family: the
// same class A virtual workload as Paper, modeled with fewer real
// pairs each standing for more virtual ones, so a procs=256 run stays
// CI-sized without shrinking the modeled problem.
func BigApps(scale float64) []core.App {
	cfg := Paper()
	cfg.Pairs = 1 << 18
	cfg.CostScale = 1 << 10
	cfg.Pairs = core.Scaled(cfg.Pairs, scale, 1<<14)
	return []core.App{newApp(cfg)}
}

func (a *app) Name() string { return "EP" }
func (a *app) Figure() int  { return 1 }

func (a *app) Problem() string {
	return fmt.Sprintf("2^28 pairs (model), %d generated", a.cfg.Pairs)
}

func (a *app) Check() error {
	if !a.hasSeq || !a.hasPar {
		return fmt.Errorf("ep: Check needs a sequential and a parallel run")
	}
	return a.seqOut.Check(a.parOut)
}

func (a *app) Seq(ctx *sim.Ctx) {
	a.seqOut = chunk(ctx, a.cfg, 0, a.cfg.Pairs)
	a.hasSeq = true
}

func (a *app) SetupTMK(sys *tmk.System) {
	a.parOut, a.hasPar = Output{}, false
	sys.Malloc(10 * 8) // shared annuli tally
	sys.Malloc(2 * 8)  // shared sums
	sys.Malloc(8)      // shared accepted count
}

func (a *app) TMK(p *tmk.Proc) {
	cfg := a.cfg
	qAddr := tmk.Addr(0)
	sumAddr := tmk.Addr(80)
	accAddr := tmk.Addr(96)
	lo, hi := span(cfg.Pairs, p.N(), p.ID())
	local := chunk(p.Ctx(), cfg, lo, hi)
	// Updates to the shared list are protected by a lock.
	p.LockAcquire(lockTally)
	q := p.I64Array(qAddr, 10)
	for i := 0; i < 10; i++ {
		q.Set(i, q.At(i)+local.Q[i])
	}
	p.WriteF64(sumAddr, p.ReadF64(sumAddr)+local.SumX)
	p.WriteF64(sumAddr+8, p.ReadF64(sumAddr+8)+local.SumY)
	p.WriteI64(accAddr, p.ReadI64(accAddr)+local.Accepted)
	p.LockRelease(lockTally)
	p.Barrier(0)
	if p.ID() == 0 {
		q := p.I64Array(qAddr, 10)
		for i := 0; i < 10; i++ {
			a.parOut.Q[i] = q.At(i)
		}
		a.parOut.SumX = p.ReadF64(sumAddr)
		a.parOut.SumY = p.ReadF64(sumAddr + 8)
		a.parOut.Accepted = p.ReadI64(accAddr)
		a.hasPar = true
	}
}

func (a *app) SetupPVM(sys *pvm.System) {
	a.parOut, a.hasPar = Output{}, false
}

func (a *app) PVM(p *pvm.Proc) {
	cfg := a.cfg
	lo, hi := span(cfg.Pairs, p.N(), p.ID())
	local := chunk(p.Ctx(), cfg, lo, hi)
	if p.ID() != 0 {
		b := p.InitSend()
		b.PackInt64(local.Q[:], 10, 1)
		b.PackFloat64([]float64{local.SumX, local.SumY}, 2, 1)
		b.PackOneInt64(local.Accepted)
		p.Send(0, tagTally)
		return
	}
	// Processor 0 receives the lists from each processor and sums.
	total := local
	for src := 1; src < p.N(); src++ {
		r := p.Recv(src, tagTally)
		var q [10]int64
		r.UnpackInt64(q[:], 10, 1)
		var sums [2]float64
		r.UnpackFloat64(sums[:], 2, 1)
		acc := r.UnpackOneInt64()
		for i := 0; i < 10; i++ {
			total.Q[i] += q[i]
		}
		total.SumX += sums[0]
		total.SumY += sums[1]
		total.Accepted += acc
	}
	a.parOut = total
	a.hasPar = true
}

func (a *app) Master() func(*pvm.Proc) { return nil }
