package barnes

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

	bodyA tmk.Addr // shared body array of the current TreadMarks run

	parOut Output // accumulated per-processor checksums (owner sets disjoint)
	seqOut Output
	hasSeq bool
	hasPar bool
}

// NewApp wraps a Barnes-Hut configuration as a registrable experiment.
func NewApp(cfg Config) core.App { return &app{cfg: cfg} }

// Clone returns a fresh instance with the same configuration and no run
// state, so grid workers can run copies concurrently (core.Cloneable).
func (a *app) Clone() core.App { return &app{cfg: a.cfg} }

// Apps returns this package's registry entry (Figure 10) at the given
// workload scale.
func Apps(scale float64) []core.App {
	cfg := Paper()
	cfg.Bodies = core.Scaled(cfg.Bodies, scale, 128)
	cfg.Steps = core.Scaled(cfg.Steps, scale, 2)
	return []core.App{&app{cfg: cfg}}
}

// BigApps returns the registry entry for the bigp scenario family:
// half the paper's bodies over two steps — enough per-processor work
// at P=256 that the tree build and force phases stay meaningful.
func BigApps(scale float64) []core.App {
	cfg := Paper()
	cfg.Bodies, cfg.Steps = 4096, 2
	cfg.Bodies = core.Scaled(cfg.Bodies, scale, 1024)
	return []core.App{&app{cfg: cfg}}
}

func (a *app) Name() string { return "Barnes-Hut" }
func (a *app) Figure() int  { return 10 }

func (a *app) Problem() string {
	return fmt.Sprintf("%d bodies, %d steps", a.cfg.Bodies, a.cfg.Steps)
}

// addSum folds one processor's partial checksum into the collector.
// Integer addition commutes, so the result is identical in any
// accumulation order.
func (a *app) addSum(v int64) { a.parOut.Sum += v }

func (a *app) Check() error {
	if !a.hasSeq || !a.hasPar {
		return fmt.Errorf("barnes: Check needs a sequential and a parallel run")
	}
	return a.seqOut.Check(a.parOut)
}

func (a *app) Seq(ctx *sim.Ctx) {
	cfg := a.cfg
	bodies := cfg.initBodies()
	for st := 0; st < cfg.Steps; st++ {
		t := buildTree(bodies, cfg.Bodies)
		ctx.Compute(sim.Time(t.built) * cfg.TreeCost)
		leaves := t.leavesInOrder(t.root, nil)
		accs := make([][3]float64, cfg.Bodies)
		inter := 0
		for _, b := range leaves {
			inter += t.force(b, cfg.Theta, &accs[b])
		}
		ctx.Compute(sim.Time(inter) * cfg.InteractCost)
		for _, b := range leaves {
			integrate(bodies, b, accs[b])
		}
		ctx.Compute(sim.Time(len(leaves)) * cfg.UpdateCost)
	}
	all := make([]int, cfg.Bodies)
	for i := range all {
		all[i] = i
	}
	a.seqOut.Sum = checksum(bodies, all)
	a.hasSeq = true
}

func (a *app) SetupTMK(sys *tmk.System) {
	a.parOut, a.hasPar = Output{}, true
	cfg := a.cfg
	a.bodyA = sys.MallocPageAligned(8 * stride * cfg.Bodies)
	sys.InitF64(a.bodyA, cfg.initBodies())
}

// TMK: the body array is shared, tree cells are private; barriers follow
// the MakeTree, force, and update phases.
func (a *app) TMK(p *tmk.Proc) {
	cfg := a.cfg
	n3 := stride * cfg.Bodies
	bv := p.F64Array(a.bodyA, n3)
	local := make([]float64, n3)
	var mine []int
	for st := 0; st < cfg.Steps; st++ {
		// MakeTree: read all shared bodies, build a private tree.
		bv.Load(local, 0, n3)
		t := buildTree(local, cfg.Bodies)
		p.Compute(sim.Time(t.built) * cfg.TreeCost)
		p.Barrier(3 * st)
		// Costzones partition over the deterministic leaf order.
		leaves := t.leavesInOrder(t.root, nil)
		mine = append([]int(nil), costzone(leaves, p.N(), p.ID())...)
		// Force computation: no synchronization needed.
		accs := make(map[int][3]float64, len(mine))
		inter := 0
		for _, b := range mine {
			var acc [3]float64
			inter += t.force(b, cfg.Theta, &acc)
			accs[b] = acc
		}
		p.Compute(sim.Time(inter) * cfg.InteractCost)
		// Barrier: everyone has finished reading positions.
		p.Barrier(3*st + 1)
		// Update: write my bodies (scattered in memory).
		for _, b := range mine {
			integrate(local, b, accs[b])
			for k := 0; k < 6; k++ {
				bv.Set(stride*b+k, local[stride*b+k])
			}
		}
		p.Compute(sim.Time(len(mine)) * cfg.UpdateCost)
		p.Barrier(3*st + 2)
	}
	a.addSum(checksum(local, mine))
}

func (a *app) SetupPVM(sys *pvm.System) {
	a.parOut, a.hasPar = Output{}, true
}

// PVM message tag.
const tagBodies = 1

// PVM: every processor broadcasts its updated bodies at the end of each
// step so each can rebuild the complete tree.
func (a *app) PVM(p *pvm.Proc) {
	cfg := a.cfg
	bodies := cfg.initBodies()
	var mine []int
	for st := 0; st < cfg.Steps; st++ {
		t := buildTree(bodies, cfg.Bodies)
		p.Compute(sim.Time(t.built) * cfg.TreeCost)
		leaves := t.leavesInOrder(t.root, nil)
		mine = append([]int(nil), costzone(leaves, p.N(), p.ID())...)
		accs := make(map[int][3]float64, len(mine))
		inter := 0
		for _, b := range mine {
			var acc [3]float64
			inter += t.force(b, cfg.Theta, &acc)
			accs[b] = acc
		}
		p.Compute(sim.Time(inter) * cfg.InteractCost)
		for _, b := range mine {
			integrate(bodies, b, accs[b])
		}
		p.Compute(sim.Time(len(mine)) * cfg.UpdateCost)
		// Broadcast my updated bodies; receive everyone else's.  The tag
		// carries the step: with a wildcard source and per-link in-order
		// delivery, a delayed peer's message must not be displaced by a
		// faster peer's next-step broadcast.
		if p.N() > 1 {
			tag := tagBodies + st
			b := p.InitSend()
			idx := make([]int32, len(mine))
			vals := make([]float64, 6*len(mine))
			for j, bi := range mine {
				idx[j] = int32(bi)
				copy(vals[6*j:], bodies[stride*bi:stride*bi+6])
			}
			b.PackOneInt32(int32(len(mine)))
			b.PackInt32(idx, len(idx), 1)
			b.PackFloat64(vals, len(vals), 1)
			p.Bcast(tag)
			for got := 0; got < p.N()-1; got++ {
				r := p.Recv(-1, tag)
				cnt := int(r.UnpackOneInt32())
				ridx := make([]int32, cnt)
				rvals := make([]float64, 6*cnt)
				r.UnpackInt32(ridx, cnt, 1)
				r.UnpackFloat64(rvals, 6*cnt, 1)
				for j, bi := range ridx {
					copy(bodies[stride*int(bi):stride*int(bi)+6], rvals[6*j:6*j+6])
				}
			}
		}
	}
	a.addSum(checksum(bodies, mine))
}

func (a *app) Master() func(*pvm.Proc) { return nil }
