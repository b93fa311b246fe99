package tmk

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/vnet"
)

// runSolo runs body on a single-processor system with nwords float64s of
// shared memory and returns nothing: single-proc runs never fault, so the
// benchmarks below isolate the access-check layer itself.
func runSolo(b *testing.B, nwords int, body func(p *Proc, base Addr)) {
	b.Helper()
	e := sim.NewEngine()
	n := vnet.New(vnet.FDDI())
	s := NewSystem(e, n, 1, DefaultConfig())
	base := s.Malloc(8 * nwords)
	s.Spawn(0, func(p *Proc) { body(p, base) })
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccess measures the software access check on the scalar path:
// per-element cost of reads and writes to valid pages.  BenchmarkLoadStore
// covers the bulk path.
func BenchmarkAccess(b *testing.B) {
	const nwords = 1 << 13 // 64 KB: 16 pages
	mask := Addr(nwords - 1)

	b.Run("scalar-read", func(b *testing.B) {
		runSolo(b, nwords, func(p *Proc, base Addr) {
			arr := p.F64Array(base, nwords)
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += arr.At(int(Addr(i) & mask))
			}
			_ = sum
		})
	})
	b.Run("scalar-write", func(b *testing.B) {
		runSolo(b, nwords, func(p *Proc, base Addr) {
			arr := p.F64Array(base, nwords)
			for i := 0; i < b.N; i++ {
				arr.Set(int(Addr(i)&mask), float64(i))
			}
		})
	})
	b.Run("scalar-read-onepage", func(b *testing.B) {
		// All accesses inside one page: the best case for a last-page cache.
		runSolo(b, nwords, func(p *Proc, base Addr) {
			arr := p.F64Array(base, nwords)
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += arr.At(int(Addr(i) & 0x1ff))
			}
			_ = sum
		})
	})
}

// BenchmarkLoadStore measures the bulk access path on the two shapes the
// apps use: one SOR row (768 float64, a page and a half, so every call
// pays two access checks for little data) and one 64 KB span (16 pages,
// where the per-element conversion is everything).  The pages are written
// once first, so Load converts real bytes rather than clearing for a
// never-written page.
func BenchmarkLoadStore(b *testing.B) {
	const nwords = 1 << 13
	for _, c := range []struct {
		name  string
		words int
	}{{"row-1.5p", 768}, {"span-64k", nwords}} {
		buf := make([]float64, c.words)
		for i := range buf {
			buf[i] = float64(i) + 0.5
		}
		b.Run("load/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * c.words))
			runSolo(b, nwords, func(p *Proc, base Addr) {
				arr := p.F64Array(base, nwords)
				arr.Store(buf, 0)
				dst := make([]float64, c.words)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arr.Load(dst, 0, c.words)
				}
			})
		})
		b.Run("store/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * c.words))
			runSolo(b, nwords, func(p *Proc, base Addr) {
				arr := p.F64Array(base, nwords)
				arr.Store(buf, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arr.Store(buf, 0)
				}
			})
		})
	}
}

// BenchmarkFault measures the fault path end to end on a two-processor
// system: each round, proc 0 writes one word on each of several pages and
// both processors cross a barrier; proc 1 then reads every page, taking
// one access fault per page (write-notice scan, minimal cover, diff
// request/response, happens-before apply).  Allocations per round are the
// fault path's GC footprint.
func BenchmarkFault(b *testing.B) { benchFaultRound(b, vnet.FDDI()) }

// BenchmarkFaultReliable is the same round with the at-least-once layer
// armed: a zero-width partition makes the fault model Lossy() without
// ever dropping a message, so sequence numbers, retransmit timers and
// the retransmit-path timestamp clones (routed through the per-proc
// arena) all run on a deterministic schedule.
func BenchmarkFaultReliable(b *testing.B) {
	nc := vnet.FDDI()
	nc.Faults.Partitions = []vnet.Partition{{Start: sim.Millisecond, Heal: sim.Millisecond, Nodes: []int{1}}}
	benchFaultRound(b, nc)
}

func benchFaultRound(b *testing.B, nc vnet.Config) {
	const pages = 8
	e := sim.NewEngine()
	n := vnet.New(nc)
	s := NewSystem(e, n, 2, DefaultConfig())
	base := s.MallocPageAligned(4096 * pages)
	k := b.N
	s.Spawn(0, func(p *Proc) {
		for r := 0; r < k; r++ {
			for pg := 0; pg < pages; pg++ {
				p.WriteI64(base+Addr(pg*4096), int64(r+pg))
			}
			p.Barrier(2 * r)
			p.Barrier(2*r + 1)
		}
	})
	var faults int
	s.Spawn(1, func(p *Proc) {
		for r := 0; r < k; r++ {
			p.Barrier(2 * r)
			for pg := 0; pg < pages; pg++ {
				if got := p.ReadI64(base + Addr(pg*4096)); got != int64(r+pg) {
					b.Errorf("round %d page %d: got %d", r, pg, got)
					return
				}
			}
			p.Barrier(2*r + 1)
		}
		faults = p.Faults
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if faults != pages*k {
		b.Fatalf("faults = %d, want %d", faults, pages*k)
	}
}

// runLargeP runs b.N rounds of body-then-barrier on an nprocs system —
// the scale-out protocol benchmark harness.  Wall time per op is one
// full round across all processors.
func runLargeP(b *testing.B, nprocs int, cfg Config, body func(p *Proc, r int, base Addr)) {
	b.Helper()
	e := sim.NewEngine()
	n := vnet.New(vnet.FDDI())
	s := NewSystem(e, n, nprocs, cfg)
	base := s.MallocPageAligned(4096 * nprocs)
	k := b.N
	for i := 0; i < nprocs; i++ {
		s.Spawn(i, func(p *Proc) {
			for r := 0; r < k; r++ {
				if body != nil {
					body(p, r, base)
				}
				p.Barrier(r)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// startLargeP builds an nprocs system over a preloaded region of
// imagePages pages and runs it through one round — every processor writes
// one word on a page of its own, then all meet at a tree barrier: what a
// large-P cell pays on the host before its first iteration.
func startLargeP(nprocs, imagePages int) error {
	cfg := DefaultConfig()
	cfg.TreeBarrier = 2
	e := sim.NewEngine()
	s := NewSystem(e, vnet.New(vnet.FDDI()), nprocs, cfg)
	base := s.MallocPageAligned(cfg.PageSize * imagePages)
	img := make([]byte, cfg.PageSize*imagePages)
	for i := range img {
		img[i] = byte(i)
	}
	s.InitBytes(base, img)
	for i := 0; i < nprocs; i++ {
		s.Spawn(i, func(p *Proc) {
			p.WriteI64(base+Addr(p.ID()*cfg.PageSize), -1)
			p.Barrier(0)
		})
	}
	return e.Run()
}

// lockedPageWrites is one round of lock traffic on 8 shared pages at
// base: the processor takes two of the pages' locks in turn and writes
// its own word on each under the lock, so every page gathers notices
// from many writers and each acquire that faults fetches diffs from many
// of them.  held, if not nil, runs while each lock is held.
func lockedPageWrites(p *Proc, r int, base Addr, held func()) {
	const pages = 8
	for j := 0; j < 2; j++ {
		pg := (p.ID() + r + 3*j) % pages
		p.LockAcquire(pg)
		p.WriteI64(base+Addr(pg*4096+8*p.ID()), int64(r))
		if held != nil {
			held()
		}
		p.LockRelease(pg)
	}
}

// BenchmarkLargeP measures the protocol paths the procs=64/256 scenario
// family leans on, at P=64: an empty barrier round (centralized versus
// radix-2 combining tree), a round where every processor closes an
// interval (64 write notices through the barrier), and an eager-mode
// round (flat broadcast versus radix-4 fan-out tree); an eager-mode
// round in the shape of the large-P cell that costs the most host time
// (water-288 on tmk-sc-tree): both trees, and every processor writing
// shared pages under per-page locks (lockedPageWrites), so faults merge
// notices from many writers and the service endpoints field requests
// and notices from every sender; and, at P=256, the start of a run over
// a 4 MB preloaded region (startLargeP).
func BenchmarkLargeP(b *testing.B) {
	const nprocs = 64
	ownPage := func(p *Proc, r int, base Addr) {
		p.WriteI64(base+Addr(p.ID()*4096), int64(r))
	}
	tree := DefaultConfig()
	tree.TreeBarrier = 2
	eager := DefaultConfig()
	eager.EagerInvalidate = true
	eagerTree := eager
	eagerTree.TreeBarrier = 2
	eagerTree.TreeFanout = 4

	b.Run("barrier-central", func(b *testing.B) { runLargeP(b, nprocs, DefaultConfig(), nil) })
	b.Run("barrier-tree", func(b *testing.B) { runLargeP(b, nprocs, tree, nil) })
	b.Run("close-central", func(b *testing.B) { runLargeP(b, nprocs, DefaultConfig(), ownPage) })
	b.Run("close-tree", func(b *testing.B) { runLargeP(b, nprocs, tree, ownPage) })
	b.Run("eager-flat", func(b *testing.B) { runLargeP(b, nprocs, eager, ownPage) })
	b.Run("eager-tree", func(b *testing.B) { runLargeP(b, nprocs, eagerTree, ownPage) })
	b.Run("eager-tree-locks", func(b *testing.B) {
		runLargeP(b, nprocs, eagerTree, func(p *Proc, r int, base Addr) { lockedPageWrites(p, r, base, nil) })
	})
	b.Run("start-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := startLargeP(256, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// faultAllocBudget is the ceiling on BenchmarkFault's allocs/op (one
// 8-page fault round: write notices, minimal cover, diff request/
// response, happens-before apply, two barriers).  History: 200 at PR 1,
// 61 after the PR 2 arena work, 32 once the vnet.Message free-list
// removed the per-send envelope allocation.  The budget leaves a little
// headroom over the measured 32; raising it needs a written
// justification in the commit that does.
const faultAllocBudget = 40

// reliableAllocBudget is the ceiling for the same round with the
// at-least-once layer armed (BenchmarkFaultReliable): the flat round
// plus sequence bookkeeping, timer scheduling, and the retransmit-path
// message builds, whose cloned-into-message timestamps must come from
// the per-proc arena rather than the heap.  Measured 54 when pinned.
const reliableAllocBudget = 64

// TestFaultPathAllocBudget pins the fault path's GC footprint: a
// steady-state faulting round must stay within faultAllocBudget
// allocations, and within reliableAllocBudget once the reliability
// layer arms.  This is the regression gate behind the free-list's
// "last per-send allocation" claim and the arena routing of the
// retransmit path's timestamp clones.
func TestFaultPathAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed budget check")
	}
	res := testing.Benchmark(BenchmarkFault)
	if got := res.AllocsPerOp(); got > faultAllocBudget {
		t.Errorf("fault round allocates %d times, budget %d", got, faultAllocBudget)
	}
	res = testing.Benchmark(BenchmarkFaultReliable)
	if got := res.AllocsPerOp(); got > reliableAllocBudget {
		t.Errorf("reliable fault round allocates %d times, budget %d", got, reliableAllocBudget)
	}
}

// largePStartBudget is the ceiling on what startLargeP(256, 1024) may
// allocate in total: a 4 MB image preloaded on 256 processors.  The image
// exists once (plus the caller's staging copy), and each processor pays
// for its page table (1024 pages x ~112 B), the one page it wrote (private
// copy, twin, diff) and its share of the first barrier's protocol state
// (its timestamp raised to 256 entries in one merge per departure).
// Measured 159 MB when pinned and 151 MB while timestamps grew one insert
// at a time (about 70 MB of it); 85 MB once applyRecords raised them once
// per batch, when the budget came down from 320 MB.  Cloning the image
// into every processor — 256 x 4 MB — costs 1.2 GB.
const largePStartBudget = 160 << 20

// TestLargePStartAllocBudget pins the host memory cost of starting a
// large-P run at O(image + P x pages touched), not O(P x image).
func TestLargePStartAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := startLargeP(256, 1024); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > largePStartBudget {
		t.Errorf("starting 256 processors over a 4 MB image allocates %d MB, budget %d MB",
			got>>20, largePStartBudget>>20)
	}
}
