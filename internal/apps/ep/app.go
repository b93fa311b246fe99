package ep

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app is the core.Program for EP.
type app struct {
	cfg Config
}

// Apps returns this package's registry entry (Figure 1) at the given
// workload scale (1.0 = paper scale).
func Apps(scale float64) []core.App {
	cfg := Paper()
	cfg.Pairs = core.Scaled(cfg.Pairs, scale, 1<<12)
	return []core.App{core.NewApp(&app{cfg})}
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
	return []core.App{core.NewApp(&app{cfg})}
}

func (a *app) Name() string { return "EP" }
func (a *app) Figure() int  { return 1 }

func (a *app) Problem() string {
	return fmt.Sprintf("2^28 pairs (model), %d generated", a.cfg.Pairs)
}

func (a *app) Seq(ctx *sim.Ctx) Output { return chunk(ctx, a.cfg, 0, a.cfg.Pairs) }

func (a *app) TMK(sys *tmk.System) (func(*tmk.Proc), func() Output) {
	cfg := a.cfg
	qAddr := sys.Malloc(10 * 8)  // shared annuli tally
	sumAddr := sys.Malloc(2 * 8) // shared sums
	accAddr := sys.Malloc(8)     // shared accepted count
	var out Output
	return func(p *tmk.Proc) {
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
			var total Output
			for i := 0; i < 10; i++ {
				total.Q[i] = q.At(i)
			}
			total.SumX = p.ReadF64(sumAddr)
			total.SumY = p.ReadF64(sumAddr + 8)
			total.Accepted = p.ReadI64(accAddr)
			out = total
		}
	}, func() Output { return out }
}

func (a *app) PVM(sys *pvm.System) (func(*pvm.Proc), func(*pvm.Proc), func() Output) {
	cfg := a.cfg
	var out Output
	return func(p *pvm.Proc) {
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
		out = total
	}, nil, func() Output { return out }
}
