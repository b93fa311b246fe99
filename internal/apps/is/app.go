package is

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app implements core.App for one Integer Sort key range.
type app struct {
	cfg    Config
	name   string
	figure int

	// Shared-memory layout of the current TreadMarks run.
	bktA, turnA tmk.Addr

	// Per-processor rank checksums of the last iteration, collected out
	// of band; runs are engine-serial, so plain slots suffice.  The
	// parallel output is assembled from these on demand.
	ranks     []int64
	bucketSum int64

	seqOut Output
	hasSeq bool
	hasPar bool
}

// NewApp wraps an IS configuration as a registrable experiment; the key
// range (cfg.Bmax) selects between the paper's IS-Small and IS-Large
// page geometries.
func NewApp(cfg Config) core.App {
	a := newApp(cfg)
	if cfg.Bmax >= 1<<15 {
		a.name, a.figure = "IS-Large", 5
	}
	return a
}

func newApp(cfg Config) *app { return &app{cfg: cfg, name: "IS-Small", figure: 4} }

// Clone returns a fresh instance with the same configuration and no run
// state, so grid workers can run copies concurrently (core.Cloneable).
func (a *app) Clone() core.App { return &app{cfg: a.cfg, name: a.name, figure: a.figure} }

// Apps returns this package's registry entries (Figures 4 and 5) at the
// given workload scale.
func Apps(scale float64) []core.App {
	var out []core.App
	for _, paper := range []Config{PaperSmall(), PaperLarge()} {
		cfg := paper
		cfg.Keys = core.Scaled(cfg.Keys, scale, 1<<12)
		cfg.Iters = core.Scaled(cfg.Iters, scale, 2)
		out = append(out, NewApp(cfg))
	}
	return out
}

// BigApps returns the registry entries for the bigp scenario family:
// fewer keys and iterations than the paper inputs (the per-key work is
// embarrassingly parallel anyway), with the large bucket range clamped
// so the shared bucket pages every processor diffs at the barrier stay
// a handful rather than dozens.
func BigApps(scale float64) []core.App {
	var out []core.App
	for _, paper := range []Config{PaperSmall(), PaperLarge()} {
		cfg := paper
		cfg.Keys, cfg.Iters = 1<<18, 4
		if cfg.Bmax > 1<<12 {
			cfg.Bmax = 1 << 12
		}
		cfg.Keys = core.Scaled(cfg.Keys, scale, 1<<14)
		cfg.Iters = core.Scaled(cfg.Iters, scale, 2)
		// The clamp above can pull Bmax below NewApp's small/large
		// threshold, so the paper input — not the clamped one — decides
		// which registry entry this is.
		a := newApp(cfg)
		if paper.Bmax >= 1<<15 {
			a.name, a.figure = "IS-Large", 5
		}
		out = append(out, a)
	}
	return out
}

func (a *app) Name() string { return a.name }
func (a *app) Figure() int  { return a.figure }

func (a *app) Problem() string {
	bexp := 0
	for 1<<bexp < a.cfg.Bmax {
		bexp++
	}
	return fmt.Sprintf("N=%d Bmax=2^%d, %d iters", a.cfg.Keys, bexp, a.cfg.Iters)
}

// assemble builds the parallel output from the per-processor collectors.
func (a *app) assemble() Output {
	out := Output{BucketSum: a.bucketSum}
	for _, r := range a.ranks {
		out.RankSum += r
	}
	return out
}

func (a *app) reset(n int) {
	a.ranks = make([]int64, n)
	a.bucketSum = 0
	a.hasPar = false
}

func (a *app) Check() error {
	if !a.hasSeq || !a.hasPar {
		return fmt.Errorf("is: Check needs a sequential and a parallel run")
	}
	return a.seqOut.Check(a.assemble())
}

func (a *app) Seq(ctx *sim.Ctx) {
	cfg := a.cfg
	keys := cfg.keys(0, cfg.Keys)
	for it := 0; it < cfg.Iters; it++ {
		counts := cfg.countKeys(ctx, keys)
		a.seqOut.BucketSum = bucketChecksum(counts)
		a.seqOut.RankSum = cfg.rankChunk(ctx, counts, keys, 0)
	}
	a.hasSeq = true
}

func (a *app) SetupTMK(sys *tmk.System) {
	a.reset(sys.N())
	a.bktA = sys.MallocPageAligned(4 * a.cfg.Bmax)
	a.turnA = sys.MallocPageAligned(8) // per-iteration arrival counter
}

func (a *app) TMK(p *tmk.Proc) {
	cfg := a.cfg
	lo, hi := span(cfg.Keys, p.N(), p.ID())
	keys := cfg.keys(lo, hi)
	counts := make([]int32, cfg.Bmax)
	for it := 0; it < cfg.Iters; it++ {
		private := cfg.countKeys(p.Ctx(), keys)
		// Add private counts into the shared array under a lock.
		p.LockAcquire(lockBuckets)
		shared := p.I32Array(a.bktA, cfg.Bmax)
		first := p.ReadI64(a.turnA)%int64(p.N()) == 0
		p.WriteI64(a.turnA, p.ReadI64(a.turnA)+1)
		if first {
			// First writer of the iteration resets the array.
			shared.Store(private, 0)
		} else {
			shared.Load(counts, 0, cfg.Bmax)
			for v := range counts {
				counts[v] += private[v]
			}
			shared.Store(counts, 0)
		}
		p.Compute(sim.Time(cfg.Bmax) * cfg.BktCost)
		p.LockRelease(lockBuckets)
		p.Barrier(2 * it)
		// All processors read the final counts and rank.
		shared.Load(counts, 0, cfg.Bmax)
		a.ranks[p.ID()] = cfg.rankChunk(p.Ctx(), counts, keys, lo)
		if p.ID() == 0 {
			a.bucketSum = bucketChecksum(counts)
			a.hasPar = true
		}
		p.Barrier(2*it + 1)
	}
}

func (a *app) SetupPVM(sys *pvm.System) {
	a.reset(sys.NumTasks())
}

func (a *app) PVM(p *pvm.Proc) {
	cfg := a.cfg
	lo, hi := span(cfg.Keys, p.N(), p.ID())
	keys := cfg.keys(lo, hi)
	n := p.N()
	final := make([]int32, cfg.Bmax)
	for it := 0; it < cfg.Iters; it++ {
		private := cfg.countKeys(p.Ctx(), keys)
		if n == 1 {
			copy(final, private)
		} else {
			// Chain sum: 0 -> 1 -> ... -> n-1, then broadcast.
			if p.ID() == 0 {
				b := p.InitSend()
				b.PackInt32(private, cfg.Bmax, 1)
				p.Send(1, tagChain)
				r := p.Recv(n-1, tagFinal)
				r.UnpackInt32(final, cfg.Bmax, 1)
			} else {
				r := p.Recv(p.ID()-1, tagChain)
				r.UnpackInt32(final, cfg.Bmax, 1)
				for v := range final {
					final[v] += private[v]
				}
				p.Compute(sim.Time(cfg.Bmax) * cfg.BktCost)
				if p.ID() == n-1 {
					b := p.InitSend()
					b.PackInt32(final, cfg.Bmax, 1)
					p.Bcast(tagFinal)
				} else {
					b := p.InitSend()
					b.PackInt32(final, cfg.Bmax, 1)
					p.Send(p.ID()+1, tagChain)
					r := p.Recv(n-1, tagFinal)
					r.UnpackInt32(final, cfg.Bmax, 1)
				}
			}
		}
		a.ranks[p.ID()] = cfg.rankChunk(p.Ctx(), final, keys, lo)
		if p.ID() == 0 {
			a.bucketSum = bucketChecksum(final)
			a.hasPar = true
		}
	}
}

func (a *app) Master() func(*pvm.Proc) { return nil }
