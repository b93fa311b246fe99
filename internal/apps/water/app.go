package water

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app is the core.Program for one Water input size.
type app struct {
	cfg    Config
	name   string
	figure int
}

// Apps returns this package's registry entries (Figures 8 and 9) at the
// given workload scale.  The large input keeps its paper name even when
// quick mode shrinks the molecule count.
func Apps(scale float64) []core.App {
	w288 := Paper288()
	w288.Steps = core.Scaled(w288.Steps, scale, 2)
	w1728 := Paper1728()
	w1728.Steps = core.Scaled(w1728.Steps, scale, 1)
	if scale < 1 {
		w1728.Mols = 512
	}
	return []core.App{
		core.NewApp(&app{cfg: w288, name: "Water-288", figure: 8}),
		core.NewApp(&app{cfg: w1728, name: "Water-1728", figure: 9}),
	}
}

// BigApps returns the registry entries for the bigp scenario family:
// molecule counts that keep several molecules per processor at P=256,
// over two steps.  Both entries keep their paper names, as quick mode
// already does.
func BigApps(scale float64) []core.App {
	small := Paper288()
	small.Mols, small.Steps = 512, 2
	large := Paper1728()
	large.Mols, large.Steps = 1024, 2
	if scale < 1 {
		small.Steps, large.Steps = 1, 1
	}
	return []core.App{
		core.NewApp(&app{cfg: small, name: "Water-288", figure: 8}),
		core.NewApp(&app{cfg: large, name: "Water-1728", figure: 9}),
	}
}

func (a *app) Name() string { return a.name }
func (a *app) Figure() int  { return a.figure }

func (a *app) Problem() string {
	return fmt.Sprintf("%d molecules, %d steps", a.cfg.Mols, a.cfg.Steps)
}

// collect returns one parallel run's collector, to which each
// processor adds the checksums of its own molecules, and the output
// assembled from it.  Integer addition commutes, so any order gives the
// same output.
func collect() (add func(forces []int64, pos []float64, lo, hi int), out func() Output) {
	var forceSum, posSum int64
	add = func(forces []int64, pos []float64, lo, hi int) {
		for i := 3 * lo; i < 3*hi; i++ {
			forceSum += forces[i] * int64(i%31+1)
			posSum += int64(math.Round(pos[i]*1e6)) * int64(i%17+1)
		}
	}
	return add, func() Output { return Output{ForceSum: forceSum, PosSum: posSum} }
}

func (a *app) Seq(ctx *sim.Ctx) Output {
	cfg := a.cfg
	s := newState(cfg)
	forces := make([]int64, 3*cfg.Mols)
	for step := 0; step < cfg.Steps; step++ {
		for i := range forces {
			forces[i] = 0
		}
		pairs := s.forceRange(0, cfg.Mols, forces)
		ctx.Compute(sim.Time(pairs) * cfg.PairCost)
		s.integrate(0, cfg.Mols, forces)
		ctx.Compute(sim.Time(cfg.Mols) * cfg.MolCost)
	}
	return s.checksum(forces)
}

// TMK: positions and forces shared; force contributions accumulated
// privately and merged under per-processor locks at the end of the force
// phase.
func (a *app) TMK(sys *tmk.System) (func(*tmk.Proc), func() Output) {
	cfg := a.cfg
	s := newState(cfg) // master copy: every proc reads pos lazily via DSM
	n3 := 3 * cfg.Mols
	posA := sys.MallocPageAligned(8 * n3)
	frcA := sys.MallocPageAligned(8 * n3)
	sys.InitF64(posA, s.pos)
	add, out := collect()
	return func(p *tmk.Proc) {
		n3 := 3 * cfg.Mols
		nprocs := p.N()
		lo, hi := chunk(cfg.Mols, nprocs, p.ID())
		pos := p.F64Array(posA, n3)
		frc := p.I64Array(frcA, n3)
		// Each proc's private state mirror; positions are read from
		// shared memory each step.
		ps := newState(cfg)
		acc := make([]int64, n3)
		forces := make([]int64, n3)
		for step := 0; step < cfg.Steps; step++ {
			// Read the positions this proc interacts with.
			half := cfg.Mols / 2
			for off := 0; off < hi-lo+half && off < cfg.Mols; off++ {
				m := (lo + off) % cfg.Mols
				for k := 0; k < 3; k++ {
					ps.pos[3*m+k] = pos.At(3*m + k)
				}
			}
			for i := range acc {
				acc[i] = 0
			}
			pairs := ps.forceRange(lo, hi, acc)
			p.Compute(sim.Time(pairs) * cfg.PairCost)
			// Merge per-owner contributions under that owner's lock.
			for _, q := range append([]int{p.ID()}, interactionWindow(cfg.Mols, nprocs, p.ID())...) {
				qlo, qhi := chunk(cfg.Mols, nprocs, q)
				any := false
				for i := 3 * qlo; i < 3*qhi; i++ {
					if acc[i] != 0 {
						any = true
						break
					}
				}
				if !any {
					continue
				}
				p.LockAcquire(q)
				for i := 3 * qlo; i < 3*qhi; i++ {
					if acc[i] != 0 {
						frc.Set(i, frc.At(i)+acc[i])
					}
				}
				p.LockRelease(q)
			}
			p.Barrier(3 * step)
			// Owners read their final forces (may fault: last writer
			// was elsewhere, and false sharing brings extra data).
			for i := 3 * lo; i < 3*hi; i++ {
				forces[i] = frc.At(i)
			}
			ps.integrate(lo, hi, forces)
			p.Compute(sim.Time(hi-lo) * cfg.MolCost)
			// Write updated positions and clear own forces.
			for m := lo; m < hi; m++ {
				for k := 0; k < 3; k++ {
					pos.Set(3*m+k, ps.pos[3*m+k])
				}
			}
			for i := 3 * lo; i < 3*hi; i++ {
				frc.Set(i, 0)
			}
			p.Barrier(3*step + 1)
		}
		// Verification: fold this proc's chunk into the collector.
		add(forces, ps.pos, lo, hi)
	}, out
}

// PVM: processors exchange displacements before the force phase and
// locally accumulated force modifications after it.
func (a *app) PVM(sys *pvm.System) (func(*pvm.Proc), func(*pvm.Proc), func() Output) {
	cfg := a.cfg
	add, out := collect()
	return func(p *pvm.Proc) {
		nprocs := p.N()
		lo, hi := chunk(cfg.Mols, nprocs, p.ID())
		window := interactionWindow(cfg.Mols, nprocs, p.ID())
		// Processors whose force phases need *my* positions: those whose
		// windows contain me.
		var audience []int
		for q := 0; q < nprocs; q++ {
			if q == p.ID() {
				continue
			}
			for _, w := range interactionWindow(cfg.Mols, nprocs, q) {
				if w == p.ID() {
					audience = append(audience, q)
					break
				}
			}
		}
		ps := newState(cfg)
		acc := make([]int64, 3*cfg.Mols)
		forces := make([]int64, 3*cfg.Mols)
		for step := 0; step < cfg.Steps; step++ {
			// Step-distinct tags (pos odd, frc even): the wildcard receives
			// must not conflate a delayed peer's message with a faster peer's
			// next-step traffic.
			posTag, frcTag := tagPos+2*step, tagFrc+2*step
			// Exchange displacements.
			if len(audience) > 0 {
				b := p.InitSend()
				b.PackFloat64(ps.pos[3*lo:3*hi], 3*(hi-lo), 1)
				p.Mcast(audience, posTag)
			}
			for range window {
				r := p.Recv(-1, posTag)
				qlo, qhi := chunk(cfg.Mols, nprocs, r.Src())
				r.UnpackFloat64(ps.pos[3*qlo:3*qhi], 3*(qhi-qlo), 1)
			}
			for i := range acc {
				acc[i] = 0
			}
			pairs := ps.forceRange(lo, hi, acc)
			p.Compute(sim.Time(pairs) * cfg.PairCost)
			// Ship per-owner force contributions.
			for _, q := range window {
				qlo, qhi := chunk(cfg.Mols, nprocs, q)
				b := p.InitSend()
				b.PackInt64(acc[3*qlo:3*qhi], 3*(qhi-qlo), 1)
				p.Send(q, frcTag)
			}
			for i := 3 * lo; i < 3*hi; i++ {
				forces[i] = acc[i]
			}
			for range audience {
				r := p.Recv(-1, frcTag)
				contrib := make([]int64, 3*(hi-lo))
				r.UnpackInt64(contrib, 3*(hi-lo), 1)
				for i := range contrib {
					forces[3*lo+i] += contrib[i]
				}
			}
			ps.integrate(lo, hi, forces)
			p.Compute(sim.Time(hi-lo) * cfg.MolCost)
		}
		add(forces, ps.pos, lo, hi)
	}, nil, out
}
