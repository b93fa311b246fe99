package ilink

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app implements core.App.
type app struct {
	cfg Config

	bankA, idxA tmk.Addr // shared layout of the current TreadMarks run

	parOut Output // master's log-likelihood (collector)
	seqOut Output
	hasSeq bool
	hasPar bool
}

// NewApp wraps an ILINK configuration as a registrable experiment.
func NewApp(cfg Config) core.App { return &app{cfg: cfg} }

// Clone returns a fresh instance with the same configuration and no run
// state, so grid workers can run copies concurrently (core.Cloneable).
func (a *app) Clone() core.App { return &app{cfg: a.cfg} }

// Apps returns this package's registry entry (Figure 12) at the given
// workload scale.
func Apps(scale float64) []core.App {
	cfg := Paper()
	cfg.Families = core.Scaled(cfg.Families, scale, 2)
	return []core.App{&app{cfg: cfg}}
}

// BigApps returns the registry entry for the bigp scenario family:
// more family visits than the paper input (the unit of parallelism)
// over a smaller genarray, so the per-visit broadcast stays CI-sized
// at P=256.
func BigApps(scale float64) []core.App {
	cfg := Paper()
	cfg.Families, cfg.G, cfg.Cluster = 24, 2048, 512
	cfg.Families = core.Scaled(cfg.Families, scale, 4)
	return []core.App{&app{cfg: cfg}}
}

func (a *app) Name() string { return "ILINK" }
func (a *app) Figure() int  { return 12 }

func (a *app) Problem() string {
	return fmt.Sprintf("synthetic CLP, %d families", a.cfg.Families)
}

func (a *app) Check() error {
	if !a.hasSeq || !a.hasPar {
		return fmt.Errorf("ilink: Check needs a sequential and a parallel run")
	}
	return a.seqOut.Check(a.parOut)
}

func (a *app) Seq(ctx *sim.Ctx) {
	cfg := a.cfg
	bank := make([][]float64, cfg.FamSize)
	for m := range bank {
		bank[m] = make([]float64, cfg.G)
	}
	a.seqOut = Output{}
	for fam := 0; fam < cfg.Families; fam++ {
		// Reinitialize the bank for this family.
		for m := 0; m < cfg.FamSize; m++ {
			for g := 0; g < cfg.G; g++ {
				bank[m][g] = cfg.initValue(fam, m, g)
			}
		}
		ctx.Compute(sim.Time(cfg.FamSize*cfg.G) * cfg.InitCost)
		// Update the parent conditioned on spouse and children.
		nz := cfg.parentNonzeros(fam)
		for _, g := range nz {
			bank[0][g] = cfg.updateElem(fam, g, bank[0][g], bank)
		}
		ctx.Compute(sim.Time(len(nz)*(cfg.FamSize-1)) * cfg.ElemCost)
		// Sum the contributions in index order.
		sum := 0.0
		for _, g := range nz {
			sum += bank[0][g]
		}
		ctx.Compute(sim.Time(len(nz)) * cfg.SumCost)
		a.seqOut.LogLike += math.Log(sum)
	}
	a.hasSeq = true
}

func (a *app) SetupTMK(sys *tmk.System) {
	a.parOut, a.hasPar = Output{}, true
	cfg := a.cfg
	a.bankA = sys.MallocPageAligned(8 * cfg.FamSize * cfg.G)
	a.idxA = sys.MallocPageAligned(4 * (cfg.G + 1))
}

// TMK: the bank of genarrays and the parent's index array are shared;
// barriers separate the master's reinitialization, the parallel element
// updates, and the summation.
func (a *app) TMK(p *tmk.Proc) {
	cfg := a.cfg
	n := p.N()
	bank := p.F64Array(a.bankA, cfg.FamSize*cfg.G)
	idx := p.I32Array(a.idxA, cfg.G+1)
	members := make([][]float64, cfg.FamSize)
	for m := range members {
		members[m] = make([]float64, cfg.G)
	}
	for fam := 0; fam < cfg.Families; fam++ {
		if p.ID() == 0 {
			// Master: reinitialize the bank and the index array.
			buf := make([]float64, cfg.G)
			for m := 0; m < cfg.FamSize; m++ {
				for g := 0; g < cfg.G; g++ {
					buf[g] = cfg.initValue(fam, m, g)
				}
				bank.Store(buf, m*cfg.G)
			}
			p.Compute(sim.Time(cfg.FamSize*cfg.G) * cfg.InitCost)
			nz := cfg.parentNonzeros(fam)
			idx.Set(0, int32(len(nz)))
			idx.Store(nz, 1)
		}
		p.Barrier(3 * fam)
		// All: read the index array and member genarrays, update
		// the round-robin share of the parent's nonzeros.
		cnt := int(idx.At(0))
		nz := make([]int32, cnt)
		idx.Load(nz, 1, 1+cnt)
		for m := 1; m < cfg.FamSize; m++ {
			start := cfg.clusterStart(fam, m)
			end := start + cfg.Cluster
			if end > cfg.G {
				end = cfg.G
			}
			bank.Load(members[m][start:end], m*cfg.G+start, m*cfg.G+end)
		}
		work := 0
		for r := p.ID(); r < cnt; r += n {
			g := nz[r]
			old := bank.At(int(g))
			bank.Set(int(g), cfg.updateElem(fam, g, old, members))
			work++
		}
		p.Compute(sim.Time(work*(cfg.FamSize-1)) * cfg.ElemCost)
		p.Barrier(3*fam + 1)
		if p.ID() == 0 {
			// Master: sum the contributions in index order.
			sum := 0.0
			for _, g := range nz {
				sum += bank.At(int(g))
			}
			p.Compute(sim.Time(cnt) * cfg.SumCost)
			a.parOut.LogLike += math.Log(sum)
		}
	}
	p.Barrier(3 * cfg.Families)
}

func (a *app) SetupPVM(sys *pvm.System) {
	a.parOut, a.hasPar = Output{}, true
}

// PVM message tags.
const (
	tagWork   = 1
	tagResult = 2
)

// PVM: the master keeps the bank private; per family it sends each slave
// its assigned parent elements plus the member cluster contexts (nonzeros
// only, one message), and receives the updated elements back (one
// message).
func (a *app) PVM(p *pvm.Proc) {
	cfg := a.cfg
	n := p.N()
	if p.ID() == 0 {
		// Master (also works on its own share, as in the paper).
		bank := make([][]float64, cfg.FamSize)
		for m := range bank {
			bank[m] = make([]float64, cfg.G)
		}
		for fam := 0; fam < cfg.Families; fam++ {
			for m := 0; m < cfg.FamSize; m++ {
				for g := 0; g < cfg.G; g++ {
					bank[m][g] = cfg.initValue(fam, m, g)
				}
			}
			p.Compute(sim.Time(cfg.FamSize*cfg.G) * cfg.InitCost)
			nz := cfg.parentNonzeros(fam)
			// Ship each slave its share plus the member contexts.
			for q := 1; q < n; q++ {
				var pos []int32
				var vals []float64
				for r := q; r < len(nz); r += n {
					pos = append(pos, nz[r])
					vals = append(vals, bank[0][nz[r]])
				}
				b := p.InitSend()
				b.PackOneInt32(int32(len(pos)))
				if len(pos) > 0 {
					b.PackInt32(pos, len(pos), 1)
					b.PackFloat64(vals, len(vals), 1)
				}
				for m := 1; m < cfg.FamSize; m++ {
					start := cfg.clusterStart(fam, m)
					end := start + cfg.Cluster
					if end > cfg.G {
						end = cfg.G
					}
					b.PackOneInt32(int32(start))
					b.PackOneInt32(int32(end - start))
					b.PackFloat64(bank[m][start:end], end-start, 1)
				}
				p.Send(q, tagWork)
			}
			// Master's own share.
			work := 0
			for r := 0; r < len(nz); r += n {
				g := nz[r]
				bank[0][g] = cfg.updateElem(fam, g, bank[0][g], bank)
				work++
			}
			p.Compute(sim.Time(work*(cfg.FamSize-1)) * cfg.ElemCost)
			// Collect slave results.
			for q := 1; q < n; q++ {
				r := p.Recv(q, tagResult)
				cnt := int(r.UnpackOneInt32())
				if cnt > 0 {
					pos := make([]int32, cnt)
					vals := make([]float64, cnt)
					r.UnpackInt32(pos, cnt, 1)
					r.UnpackFloat64(vals, cnt, 1)
					for i, g := range pos {
						bank[0][g] = vals[i]
					}
				}
			}
			sum := 0.0
			for _, g := range nz {
				sum += bank[0][g]
			}
			p.Compute(sim.Time(len(nz)) * cfg.SumCost)
			a.parOut.LogLike += math.Log(sum)
		}
		return
	}
	// Slave.
	members := make([][]float64, cfg.FamSize)
	for m := range members {
		members[m] = make([]float64, cfg.G)
	}
	for fam := 0; fam < cfg.Families; fam++ {
		r := p.Recv(0, tagWork)
		cnt := int(r.UnpackOneInt32())
		pos := make([]int32, cnt)
		vals := make([]float64, cnt)
		if cnt > 0 {
			r.UnpackInt32(pos, cnt, 1)
			r.UnpackFloat64(vals, cnt, 1)
		}
		for m := 1; m < cfg.FamSize; m++ {
			start := int(r.UnpackOneInt32())
			ln := int(r.UnpackOneInt32())
			r.UnpackFloat64(members[m][start:start+ln], ln, 1)
		}
		for i, g := range pos {
			vals[i] = cfg.updateElem(fam, g, vals[i], members)
		}
		p.Compute(sim.Time(cnt*(cfg.FamSize-1)) * cfg.ElemCost)
		b := p.InitSend()
		b.PackOneInt32(int32(cnt))
		if cnt > 0 {
			b.PackInt32(pos, cnt, 1)
			b.PackFloat64(vals, cnt, 1)
		}
		p.Send(0, tagResult)
	}
}

func (a *app) Master() func(*pvm.Proc) { return nil }
