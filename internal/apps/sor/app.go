package sor

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app is the core.Program for one SOR input mode (zero or nonzero).
type app struct {
	cfg Config
}

// NewApp wraps a SOR configuration as a registrable experiment; the input
// mode (cfg.Zero) selects between the paper's SOR-Zero and SOR-Nonzero.
func NewApp(cfg Config) core.App { return core.NewApp(&app{cfg}) }

// Apps returns this package's registry entries (Figures 2 and 3) at the
// given workload scale.
func Apps(scale float64) []core.App {
	var out []core.App
	for _, zero := range []bool{true, false} {
		cfg := Paper(zero)
		cfg.M = core.Scaled(cfg.M, scale, 32)
		cfg.Sweeps = core.Scaled(cfg.Sweeps, scale, 4)
		out = append(out, NewApp(cfg))
	}
	return out
}

// BigApps returns the registry entries for the bigp scenario family.
func BigApps(scale float64) []core.App {
	return []core.App{NewApp(bigConfig(true, scale)), NewApp(bigConfig(false, scale))}
}

// bigConfig is the bigp input: enough rows that every processor keeps a
// band at P=256, with the sweep count cut so the simulation stays
// CI-sized.
func bigConfig(zero bool, scale float64) Config {
	cfg := Paper(zero)
	cfg.M, cfg.N, cfg.Sweeps = 1024, 512, 8
	cfg.M = core.Scaled(cfg.M, scale, 512)
	cfg.Sweeps = core.Scaled(cfg.Sweeps, scale, 4)
	return cfg
}

func (a *app) Name() string {
	if a.cfg.Zero {
		return "SOR-Zero"
	}
	return "SOR-Nonzero"
}

func (a *app) Figure() int {
	if a.cfg.Zero {
		return 2
	}
	return 3
}

func (a *app) Problem() string {
	mode := "nonzero"
	if a.cfg.Zero {
		mode = "zero"
	}
	return fmt.Sprintf("%dx%d f64, %d sweeps, %s", a.cfg.M, a.cfg.N, a.cfg.Sweeps, mode)
}

func (a *app) Seq(ctx *sim.Ctx) Output {
	cfg := a.cfg
	red, black := cfg.grids()
	h := cfg.half()
	row := func(arr []float64, i int) []float64 { return arr[i*h : (i+1)*h] }
	for s := 0; s < cfg.Sweeps; s++ {
		tgt, oth := red, black
		isRed := s%2 == 0
		if !isRed {
			tgt, oth = black, red
		}
		for i := 1; i < cfg.M-1; i++ {
			cost := sweepRow(cfg, i, row(tgt, i), row(oth, i-1), row(oth, i), row(oth, i+1),
				colParity(i, isRed))
			ctx.Compute(cost)
		}
	}
	sums := make([]float64, 2*cfg.M)
	for i := 0; i < cfg.M; i++ {
		sums[2*i] = rowSum(row(red, i))
		sums[2*i+1] = rowSum(row(black, i))
	}
	return Output{Checksum: checksum(sums)}
}

// TMK: both arrays live in shared memory, processors synchronize with one
// barrier per color sweep.
//
// A sweep writes only its target colour, so the other colour's rows hold
// still between barriers: the three other-colour rows rotate through
// local buffers, and each row is loaded once per sweep.  Rows i-1 and i
// are loaded at the band's first interior row, and each row after loads
// only row i+1, so the Loads still reach each page first in the order
// the three-Loads-per-row loop did, before the same Compute, and every
// modeled value stays put.  Together with package tmk's four-wide bulk
// codecs and block diff scan, this took the paper-scale tmk cell at P=8
// from 0.60-0.63 s to 0.42-0.44 s of host time for SOR-Zero and from
// 1.02-1.18 s to 0.67-0.80 s for SOR-Nonzero (2 vCPUs, 5 pairs).
func (a *app) TMK(sys *tmk.System) (func(*tmk.Proc), func() Output) {
	cfg := a.cfg
	h := cfg.half()
	redA := sys.Malloc(8 * cfg.M * h)
	blackA := sys.Malloc(8 * cfg.M * h)
	sumsA := sys.Malloc(8 * 2 * cfg.M)
	// Preload row by row through one reused row, as PVM fills its band,
	// rather than building both whole grids (12 MB each at paper scale).
	row := make([]float64, h)
	f := cfg.filler(0, cfg.M)
	for i := 0; i < cfg.M; i++ {
		for colour, base := range [2]tmk.Addr{redA, blackA} {
			f.fillRow(row, i, colour)
			sys.InitF64(base+tmk.Addr(8*i*h), row)
		}
	}
	var out Output
	return func(p *tmk.Proc) {
		lo, hi := band(cfg.M, p.N(), p.ID())
		// The band's interior rows: the first and last matrix rows are fixed.
		first, last := max(lo, 1), min(hi, cfg.M-1)
		red := p.F64Array(redA, cfg.M*h)
		black := p.F64Array(blackA, cfg.M*h)
		// Local scratch rows.
		up := make([]float64, h)
		same := make([]float64, h)
		down := make([]float64, h)
		tgt := make([]float64, h)
		for s := 0; s < cfg.Sweeps; s++ {
			isRed := s%2 == 0
			tArr, oArr := red, black
			if !isRed {
				tArr, oArr = black, red
			}
			for i := first; i < last; i++ {
				if i == first {
					oArr.Load(up, (i-1)*h, i*h)
					oArr.Load(same, i*h, (i+1)*h)
				} else {
					up, same, down = same, down, up
				}
				oArr.Load(down, (i+1)*h, (i+2)*h)
				tArr.Load(tgt, i*h, (i+1)*h)
				cost := sweepRow(cfg, i, tgt, up, same, down, colParity(i, isRed))
				p.Compute(cost)
				tArr.Store(tgt, i*h)
			}
			p.Barrier(s)
		}
		// Residual: per-row sums in shared memory, reduced by proc 0.
		sums := p.F64Array(sumsA, 2*cfg.M)
		buf := make([]float64, h)
		for i := lo; i < hi; i++ {
			red.Load(buf, i*h, (i+1)*h)
			sums.Set(2*i, rowSum(buf))
			black.Load(buf, i*h, (i+1)*h)
			sums.Set(2*i+1, rowSum(buf))
		}
		p.Barrier(cfg.Sweeps)
		if p.ID() == 0 {
			all := make([]float64, 2*cfg.M)
			sums.Load(all, 0, 2*cfg.M)
			out = Output{Checksum: checksum(all)}
		}
	}, func() Output { return out }
}

// PVM: each processor holds its band plus ghost rows and explicitly sends
// the just-updated boundary rows to neighbors.
func (a *app) PVM(sys *pvm.System) (func(*pvm.Proc), func(*pvm.Proc), func() Output) {
	cfg := a.cfg
	h := cfg.half()
	var out Output
	return func(p *pvm.Proc) {
		lo, hi := band(cfg.M, p.N(), p.ID())
		// Local storage only for the band plus ghost rows: the data is
		// initialized in a distributed manner in the PVM version.
		glo := lo - 1
		if glo < 0 {
			glo = 0
		}
		ghi := hi + 1
		if ghi > cfg.M {
			ghi = cfg.M
		}
		red := make([]float64, (ghi-glo)*h)
		black := make([]float64, (ghi-glo)*h)
		f := cfg.filler(glo, ghi)
		for i := glo; i < ghi; i++ {
			f.fillRow(red[(i-glo)*h:(i-glo+1)*h], i, 0)
			f.fillRow(black[(i-glo)*h:(i-glo+1)*h], i, 1)
		}
		row := func(arr []float64, i int) []float64 {
			if i < glo || i >= ghi {
				panic(fmt.Sprintf("sor: pvm proc %d touched row %d outside [%d,%d)", p.ID(), i, glo, ghi))
			}
			return arr[(i-glo)*h : (i-glo+1)*h]
		}
		for s := 0; s < cfg.Sweeps; s++ {
			isRed := s%2 == 0
			tgt, oth := red, black
			if !isRed {
				tgt, oth = black, red
			}
			for i := lo; i < hi; i++ {
				if i == 0 || i == cfg.M-1 {
					continue
				}
				cost := sweepRow(cfg, i, row(tgt, i), row(oth, i-1), row(oth, i), row(oth, i+1),
					colParity(i, isRed))
				p.Compute(cost)
			}
			// Exchange the just-updated color's boundary rows.
			if p.ID() > 0 {
				b := p.InitSend()
				b.PackFloat64(row(tgt, lo), h, 1)
				p.Send(p.ID()-1, tagRowUp)
			}
			if p.ID() < p.N()-1 {
				b := p.InitSend()
				b.PackFloat64(row(tgt, hi-1), h, 1)
				p.Send(p.ID()+1, tagRowDown)
			}
			if p.ID() < p.N()-1 {
				r := p.Recv(p.ID()+1, tagRowUp)
				r.UnpackFloat64(row(tgt, hi), h, 1)
			}
			if p.ID() > 0 {
				r := p.Recv(p.ID()-1, tagRowDown)
				r.UnpackFloat64(row(tgt, lo-1), h, 1)
			}
		}
		// Residual: ship per-row sums to processor 0.
		mySums := make([]float64, 2*(hi-lo))
		for i := lo; i < hi; i++ {
			mySums[2*(i-lo)] = rowSum(row(red, i))
			mySums[2*(i-lo)+1] = rowSum(row(black, i))
		}
		if p.ID() != 0 {
			b := p.InitSend()
			b.PackFloat64(mySums, len(mySums), 1)
			p.Send(0, tagSums)
			return
		}
		all := make([]float64, 2*cfg.M)
		copy(all, mySums)
		for src := 1; src < p.N(); src++ {
			slo, shi := band(cfg.M, p.N(), src)
			r := p.Recv(src, tagSums)
			r.UnpackFloat64(all[2*slo:2*shi], 2*(shi-slo), 1)
		}
		out = Output{Checksum: checksum(all)}
	}, nil, func() Output { return out }
}
