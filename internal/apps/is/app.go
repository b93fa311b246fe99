package is

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app is the core.Program for one Integer Sort key range.
type app struct {
	cfg    Config
	name   string
	figure int
}

// NewApp wraps an IS configuration as a registrable experiment; the key
// range (cfg.Bmax) selects between the paper's IS-Small and IS-Large
// page geometries.
func NewApp(cfg Config) core.App { return core.NewApp(newApp(cfg)) }

func newApp(cfg Config) *app {
	if cfg.Bmax >= 1<<15 {
		return &app{cfg: cfg, name: "IS-Large", figure: 5}
	}
	return &app{cfg: cfg, name: "IS-Small", figure: 4}
}

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
		a := newApp(paper)
		a.cfg = cfg
		out = append(out, core.NewApp(a))
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

func (a *app) Seq(ctx *sim.Ctx) Output {
	cfg := a.cfg
	keys := cfg.keys(0, cfg.Keys)
	var out Output
	for it := 0; it < cfg.Iters; it++ {
		counts := cfg.countKeys(ctx, keys)
		out.BucketSum = bucketChecksum(counts)
		out.RankSum = cfg.rankChunk(ctx, counts, keys, 0)
	}
	return out
}

// collect returns the collectors of one parallel run: the per-processor
// rank checksums and processor 0's bucket checksum of the last
// iteration, gathered out of band (runs are engine-serial, so plain
// slots suffice), and the output assembled from them.
func collect(n int) (ranks []int64, bucketSum *int64, out func() Output) {
	ranks, bucketSum = make([]int64, n), new(int64)
	return ranks, bucketSum, func() Output {
		o := Output{BucketSum: *bucketSum}
		for _, r := range ranks {
			o.RankSum += r
		}
		return o
	}
}

func (a *app) TMK(sys *tmk.System) (func(*tmk.Proc), func() Output) {
	cfg := a.cfg
	bktA := sys.MallocPageAligned(4 * cfg.Bmax)
	turnA := sys.MallocPageAligned(8) // per-iteration arrival counter
	ranks, bucketSum, out := collect(sys.N())
	return func(p *tmk.Proc) {
		lo, hi := span(cfg.Keys, p.N(), p.ID())
		keys := cfg.keys(lo, hi)
		counts := make([]int32, cfg.Bmax)
		for it := 0; it < cfg.Iters; it++ {
			private := cfg.countKeys(p.Ctx(), keys)
			// Add private counts into the shared array under a lock.
			p.LockAcquire(lockBuckets)
			shared := p.I32Array(bktA, cfg.Bmax)
			first := p.ReadI64(turnA)%int64(p.N()) == 0
			p.WriteI64(turnA, p.ReadI64(turnA)+1)
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
			ranks[p.ID()] = cfg.rankChunk(p.Ctx(), counts, keys, lo)
			if p.ID() == 0 {
				*bucketSum = bucketChecksum(counts)
			}
			p.Barrier(2*it + 1)
		}
	}, out
}

func (a *app) PVM(sys *pvm.System) (func(*pvm.Proc), func(*pvm.Proc), func() Output) {
	cfg := a.cfg
	ranks, bucketSum, out := collect(sys.NumTasks())
	return func(p *pvm.Proc) {
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
			ranks[p.ID()] = cfg.rankChunk(p.Ctx(), final, keys, lo)
			if p.ID() == 0 {
				*bucketSum = bucketChecksum(final)
			}
		}
	}, nil, out
}
