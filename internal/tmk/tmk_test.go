package tmk

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/vnet"
)

// world builds an engine + network + n-processor DSM for tests.
func world(n int) (*sim.Engine, *System) {
	eng := sim.NewEngine()
	net := vnet.New(vnet.FDDI())
	return eng, NewSystem(eng, net, n, DefaultConfig())
}

// runAll spawns the same body on every processor and runs to completion.
func runAll(t *testing.T, eng *sim.Engine, sys *System, body func(*Proc)) {
	t.Helper()
	for i := 0; i < sys.N(); i++ {
		sys.Spawn(i, body)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierPropagatesWrites(t *testing.T) {
	eng, sys := world(4)
	x := sys.Malloc(8)
	got := make([]float64, 4)
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 0 {
			p.WriteF64(x, 3.25)
		}
		p.Barrier(0)
		got[p.ID()] = p.ReadF64(x)
	})
	for i, v := range got {
		if v != 3.25 {
			t.Fatalf("proc %d read %v, want 3.25", i, v)
		}
	}
}

func TestBarrierMessageCount(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		eng, sys := world(n)
		sys.Malloc(8)
		runAll(t, eng, sys, func(p *Proc) {
			p.Barrier(0)
		})
		// Nothing was written, so the only traffic is the barrier itself:
		// (n-1) arrivals + (n-1) departures.
		want := int64(2 * (n - 1))
		if got := sys.Stats().Messages; got != want {
			t.Fatalf("n=%d: barrier cost %d messages, want %d", n, got, want)
		}
	}
}

func TestBarrierSequence(t *testing.T) {
	eng, sys := world(3)
	x := sys.Malloc(8)
	var sum float64
	runAll(t, eng, sys, func(p *Proc) {
		for round := 0; round < 5; round++ {
			if p.ID() == round%3 {
				p.WriteF64(x, p.ReadF64(x)+1)
			}
			p.Barrier(round)
		}
		if p.ID() == 1 {
			sum = p.ReadF64(x)
		}
	})
	if sum != 5 {
		t.Fatalf("sum = %v, want 5", sum)
	}
}

func TestLockMutualExclusionCounter(t *testing.T) {
	const n, rounds = 4, 10
	eng, sys := world(n)
	ctr := sys.Malloc(8)
	runAll(t, eng, sys, func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.LockAcquire(1)
			p.WriteI64(ctr, p.ReadI64(ctr)+1)
			p.LockRelease(1)
			p.Compute(sim.Millisecond) // stagger
		}
		p.Barrier(0)
		if got := p.ReadI64(ctr); got != n*rounds {
			t.Errorf("proc %d: counter = %d, want %d", p.ID(), got, n*rounds)
		}
	})
}

func TestLockLocalReacquireIsFree(t *testing.T) {
	eng, sys := world(2)
	x := sys.Malloc(8)
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 0 { // proc 0 manages lock 0 and owns it initially
			for i := 0; i < 5; i++ {
				p.LockAcquire(0)
				p.WriteI64(x, int64(i))
				p.LockRelease(0)
			}
		}
		p.Barrier(0)
	})
	// The whole run's wire traffic must be the single barrier (2 messages
	// for n=2): every lock acquire was a free local reacquire.
	if got := sys.Stats().Messages; got != 2 {
		t.Fatalf("run cost %d messages, want 2 (barrier only)", got)
	}
}

// TestLockForwardingChain: manager forwards to the last requester even
// when that processor has not finished with the lock yet.
func TestLockForwardingChain(t *testing.T) {
	const n = 3
	eng, sys := world(n)
	x := sys.Malloc(8)
	order := []int64{}
	runAll(t, eng, sys, func(p *Proc) {
		// Stagger so requests arrive in id order while the lock is busy.
		p.Compute(sim.Time(p.ID()) * 100 * sim.Microsecond)
		p.LockAcquire(5)
		order = append(order, int64(p.ID()))
		p.WriteI64(x, p.ReadI64(x)*10+int64(p.ID())+1)
		p.Compute(10 * sim.Millisecond) // hold while others queue
		p.LockRelease(5)
		p.Barrier(0)
		if p.ID() == 0 {
			got := p.ReadI64(x)
			// Each holder appended its digit: value encodes the sequence.
			var want int64
			for _, id := range order {
				want = want*10 + id + 1
			}
			if got != want {
				t.Errorf("x = %d, want %d (order %v)", got, want, order)
			}
		}
	})
	if len(order) != n {
		t.Fatalf("order = %v", order)
	}
}

// TestMultipleWriterFalseSharing: two processors write disjoint halves of
// the same page concurrently; after the barrier both see both halves.
func TestMultipleWriterFalseSharing(t *testing.T) {
	eng, sys := world(2)
	arr := sys.Malloc(16) // two int64s, same page
	a := arr
	b := arr + 8
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 0 {
			p.WriteI64(a, 111)
		} else {
			p.WriteI64(b, 222)
		}
		p.Barrier(0)
		if got := p.ReadI64(a); got != 111 {
			t.Errorf("proc %d: a = %d", p.ID(), got)
		}
		if got := p.ReadI64(b); got != 222 {
			t.Errorf("proc %d: b = %d", p.ID(), got)
		}
	})
}

// TestDiffAccumulation reproduces the IS pathology: a page rewritten under
// a lock by each processor in turn accumulates one diff per predecessor,
// all of which are shipped to the next acquirer.
func TestDiffAccumulation(t *testing.T) {
	const n = 4
	eng, sys := world(n)
	cfg := DefaultConfig()
	vals := sys.Malloc(cfg.PageSize) // one full page of data
	nvals := cfg.PageSize / 8
	var lastApplied int
	runAll(t, eng, sys, func(p *Proc) {
		p.Compute(sim.Time(p.ID()) * 10 * sim.Millisecond) // serialize acquires
		p.LockAcquire(1)
		arr := p.I64Array(vals, nvals)
		before := p.DiffsApplied
		// Overwrite the whole page.
		for i := 0; i < nvals; i++ {
			arr.Set(i, int64(p.ID()*1000+i))
		}
		applied := p.DiffsApplied - before
		if p.ID() == n-1 {
			lastApplied = applied
		}
		p.LockRelease(1)
		p.Barrier(0)
	})
	// The last acquirer must have applied one diff per preceding writer,
	// even though they completely overlap (diff accumulation).
	if lastApplied != n-1 {
		t.Fatalf("last acquirer applied %d diffs, want %d", lastApplied, n-1)
	}
}

// TestMinimalDiffRequestSet: with a causal chain of writers, the faulting
// processor asks only the most recent writer (whose interval dominates),
// not every writer.
func TestMinimalDiffRequestSet(t *testing.T) {
	const n = 4
	eng, sys := world(n)
	page := sys.Malloc(4096)
	reqs := make([]int, n)
	runAll(t, eng, sys, func(p *Proc) {
		p.Compute(sim.Time(p.ID()) * 10 * sim.Millisecond)
		p.LockAcquire(1)
		p.WriteI64(page+Addr(8*p.ID()), int64(p.ID()+1))
		p.LockRelease(1)
		p.Barrier(0)
		// Everyone reads the page: one fault each (except writers of the
		// final interval who are already valid... all were invalidated by
		// the barrier except the last writer).
		before := p.DiffRequests
		_ = p.ReadI64(page)
		reqs[p.ID()] = p.DiffRequests - before
		p.Barrier(1)
	})
	for i, r := range reqs {
		if i == n-1 {
			if r != 0 {
				t.Errorf("last writer should not fault on its own page: %d requests", r)
			}
			continue
		}
		if r != 1 {
			t.Errorf("proc %d sent %d diff requests, want 1 (chain dominance)", i, r)
		}
	}
}

func TestInitDataVisibleEverywhereFree(t *testing.T) {
	// "serial" names the engine: the serial coroutine engine.
	t.Run("serial", func(t *testing.T) {
		eng, sys := world(3)
		a := sys.Malloc(24)
		sys.InitF64(a, []float64{1.5, 2.5, 3.5})
		runAll(t, eng, sys, func(p *Proc) {
			arr := p.F64Array(a, 3)
			if arr.At(0) != 1.5 || arr.At(1) != 2.5 || arr.At(2) != 3.5 {
				t.Errorf("proc %d sees %v %v %v", p.ID(), arr.At(0), arr.At(1), arr.At(2))
			}
		})
		if sys.Stats().Messages != 0 {
			t.Fatalf("initial data should be preloaded, not fetched: %d msgs", sys.Stats().Messages)
		}
	})
}

// TestPreloadedImageCopyOnWrite: every processor's preloaded pages alias
// the system's one image until that processor mutates them.  The three
// ways a page's bytes change — a scalar write, a bulk Store (here after a
// scalar read cached the image's bytes), and a fault applying a remote
// diff — must each leave the writer reading its new bytes through the
// cached fast path and the uncached bulk path, and leave the image and
// every other processor's view alone until synchronization carries the
// write over.
func TestPreloadedImageCopyOnWrite(t *testing.T) {
	// "serial" names the engine: the serial coroutine engine.
	t.Run("serial", func(t *testing.T) {
		const words = 512 // float64s per page
		eng, sys := world(4)
		a := sys.MallocPageAligned(3 * 4096) // page 0: scalar, 1: Store, 2: never written
		init := make([]float64, 3*words)
		for i := range init {
			init[i] = float64(i + 1)
		}
		sys.InitF64(a, init)
		image := map[int][]byte{}
		for pid, b := range sys.initial {
			image[pid] = append([]byte(nil), b...)
		}
		// expect checks elements [lo,hi) against want through At (the
		// scalar caches) and through Load (straight off the page).
		expect := func(p *Proc, when string, lo, hi int, want func(i int) float64) {
			arr := p.F64Array(a, len(init))
			buf := make([]float64, hi-lo)
			arr.Load(buf, lo, hi)
			for i := lo; i < hi; i++ {
				if got := arr.At(i); got != want(i) {
					t.Errorf("proc %d %s: At(%d) = %v, want %v", p.ID(), when, i, got, want(i))
				}
				if got := buf[i-lo]; got != want(i) {
					t.Errorf("proc %d %s: Load[%d] = %v, want %v", p.ID(), when, i, got, want(i))
				}
			}
		}
		initial := func(i int) float64 { return init[i] }
		written := func(i int) float64 {
			switch i {
			case 1:
				return -1
			case words, words + 1:
				return float64(-2 - (i - words))
			}
			return init[i]
		}
		runAll(t, eng, sys, func(p *Proc) {
			arr := p.F64Array(a, len(init))
			switch p.ID() {
			case 0:
				arr.Set(1, -1)
				expect(p, "after its scalar write", 0, words, written)
				expect(p, "beside its scalar write", words, 3*words, initial)
			case 1:
				if arr.At(words) != init[words] { // read cache now windows the image
					t.Errorf("proc 1 reads %v before its Store", arr.At(words))
				}
				arr.Store([]float64{-2, -3}, words)
				expect(p, "after its Store", words, 2*words, written)
			default:
				expect(p, "before synchronization", 0, 3*words, initial)
			}
			p.Barrier(0)
			// Procs 2 and 3 fault on pages they still share with the
			// image; procs 0 and 1 on each other's page.
			expect(p, "after the barrier", 0, 3*words, written)
		})
		for pid, b := range sys.initial {
			if !bytes.Equal(b, image[pid]) {
				t.Errorf("page %d of the preloaded image was written through", pid)
			}
		}
		first := int(a) / 4096
		for id := 0; id < sys.N(); id++ {
			for i := 0; i < 3; i++ {
				pg := sys.Proc(id).pages[first+i]
				aliases := &pg.data[0] == &sys.initial[first+i][0]
				if want := i == 2; pg.image != want || aliases != want {
					t.Errorf("proc %d page %d: image=%v aliases=%v, want %v", id, i, pg.image, aliases, want)
				}
			}
		}
	})
}

func TestReadYourOwnWritesNoTraffic(t *testing.T) {
	eng, sys := world(2)
	a := sys.Malloc(4096)
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 0 {
			arr := p.I64Array(a, 512)
			for i := 0; i < 512; i++ {
				arr.Set(i, int64(i))
			}
			if sys.Stats().Messages != 0 {
				t.Errorf("private-phase writes caused traffic")
			}
			for i := 0; i < 512; i++ {
				if arr.At(i) != int64(i) {
					t.Fatalf("read back %d", arr.At(i))
				}
			}
		}
		p.Barrier(0)
	})
}

// TestWriterKeepsPageValidAfterBarrier: the writer of the latest interval
// does not fault on its own data (no write notices against itself).
func TestWriterKeepsPageValidAfterBarrier(t *testing.T) {
	eng, sys := world(2)
	a := sys.Malloc(8)
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 0 {
			p.WriteI64(a, 7)
		}
		p.Barrier(0)
		if p.ID() == 0 {
			before := p.Faults
			if p.ReadI64(a) != 7 {
				t.Error("writer lost its own write")
			}
			if p.Faults != before {
				t.Error("writer faulted on its own page")
			}
		}
	})
}

func TestSORBoundaryExchangePattern(t *testing.T) {
	// One writer, one reader across a page boundary, several iterations:
	// per iteration the reader faults once and sends one diff request,
	// and barrier costs 2*(n-1) messages.
	const iters = 5
	eng, sys := world(2)
	row := sys.Malloc(4096)
	runAll(t, eng, sys, func(p *Proc) {
		for it := 0; it < iters; it++ {
			if p.ID() == 0 {
				p.WriteF64(row, float64(it+1))
			}
			p.Barrier(it)
			if p.ID() == 1 {
				if got := p.ReadF64(row); got != float64(it+1) {
					t.Errorf("iter %d: read %v", it, got)
				}
			}
		}
	})
	// Expected wire messages: iters * (2 barrier msgs for n=2) for sync
	// plus iters * 2 for diff request/response.
	want := int64(iters*2 + iters*2)
	if got := sys.Stats().Messages; got != want {
		t.Fatalf("messages = %d, want %d", got, want)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (vnet.Stats, sim.Time) {
		eng, sys := world(4)
		a := sys.Malloc(4096 * 2)
		for i := 0; i < 4; i++ {
			sys.Spawn(i, func(p *Proc) {
				arr := p.I64Array(a, 1024)
				for r := 0; r < 3; r++ {
					p.LockAcquire(0)
					arr.Set(p.ID(), arr.At(p.ID())+1)
					p.LockRelease(0)
					p.Barrier(r)
					_ = arr.At((p.ID() + 1) % 4)
					p.Barrier(100 + r)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.Stats(), eng.MaxPrimaryClock()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("nondeterministic: %+v/%v vs %+v/%v", s1, t1, s2, t2)
	}
}

func TestViewBoundsPanics(t *testing.T) {
	eng, sys := world(1)
	a := sys.Malloc(16)
	sys.Spawn(0, func(p *Proc) {
		arr := p.I64Array(a, 2)
		defer func() {
			if recover() == nil {
				t.Error("expected bounds panic")
			}
		}()
		arr.At(2)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	eng, sys := world(1)
	sys.Malloc(64)
	sys.Spawn(0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected alignment panic")
			}
		}()
		p.ReadF64(Addr(4)) // 8-byte read at 4-byte offset
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfSpaceAccessPanics(t *testing.T) {
	eng, sys := world(1)
	sys.Malloc(8)
	sys.Spawn(0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected out-of-space panic")
			}
		}()
		p.ReadI64(Addr(8))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadStoreAcrossPages(t *testing.T) {
	eng, sys := world(2)
	const n = 1500 // spans ~3 pages of float64
	a := sys.Malloc(8 * n)
	runAll(t, eng, sys, func(p *Proc) {
		arr := p.F64Array(a, n)
		if p.ID() == 0 {
			src := make([]float64, n)
			for i := range src {
				src[i] = float64(i) * 0.5
			}
			arr.Store(src, 0)
		}
		p.Barrier(0)
		if p.ID() == 1 {
			dst := make([]float64, n)
			arr.Load(dst, 0, n)
			for i := range dst {
				if dst[i] != float64(i)*0.5 {
					t.Fatalf("dst[%d] = %v", i, dst[i])
				}
			}
		}
	})
}

func TestDoubleAcquirePanics(t *testing.T) {
	eng, sys := world(1)
	sys.Malloc(8)
	sys.Spawn(0, func(p *Proc) {
		p.LockAcquire(0)
		defer func() {
			if recover() == nil {
				t.Error("expected double-acquire panic")
			}
		}()
		p.LockAcquire(0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseWithoutHoldPanics(t *testing.T) {
	eng, sys := world(1)
	sys.Malloc(8)
	sys.Spawn(0, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected release panic")
			}
		}()
		p.LockRelease(3)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMallocAlignment checks 8-byte alignment and non-overlap.
func TestMallocAlignment(t *testing.T) {
	_, sys := world(1)
	a := sys.Malloc(3)
	b := sys.Malloc(5)
	c := sys.Malloc(8)
	if a%8 != 0 || b%8 != 0 || c%8 != 0 {
		t.Fatalf("alignment: %d %d %d", a, b, c)
	}
	if b < a+3 || c < b+5 {
		t.Fatalf("overlap: %d %d %d", a, b, c)
	}
}

// TestLazyDiffsOnlyOnRequest: a processor that never touches modified
// data receives no diffs (lazy release consistency), only write notices.
func TestLazyDiffsOnlyOnRequest(t *testing.T) {
	eng, sys := world(3)
	a := sys.Malloc(4096 * 4)
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 0 {
			arr := p.I64Array(a, 2048)
			for i := 0; i < 2048; i++ {
				arr.Set(i, int64(i))
			}
		}
		p.Barrier(0)
		if p.ID() == 1 {
			_ = p.ReadI64(a) // touches only the first page
		}
		// Proc 2 never reads: must receive zero diff bytes.
		p.Barrier(1)
		if p.ID() == 2 && p.DiffBytes != 0 {
			t.Errorf("idle proc received %d diff bytes", p.DiffBytes)
		}
		if p.ID() == 1 && p.DiffRequests != 1 {
			t.Errorf("reader sent %d diff requests, want 1 (one page)", p.DiffRequests)
		}
	})
}

// TestWaitTimeAccounting: lock contention shows up in LockWait; barrier
// stalls in BarrierWait.
func TestWaitTimeAccounting(t *testing.T) {
	eng, sys := world(2)
	x := sys.Malloc(8)
	var lockWait, barrWait sim.Time
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 1 {
			// Proc 1 acquires a lock proc 0 holds for 50ms.
			p.Ctx().Compute(time5ms)
			p.LockAcquire(0)
			p.WriteI64(x, 1)
			p.LockRelease(0)
			lockWait = p.LockWait
		} else {
			p.LockAcquire(0)
			p.Compute(50 * sim.Millisecond)
			p.LockRelease(0)
		}
		p.Barrier(0)
		if p.ID() == 0 {
			barrWait = p.BarrierWait
		}
	})
	if lockWait < 30*sim.Millisecond {
		t.Fatalf("lock wait = %v, want >= 30ms of contention", lockWait)
	}
	if barrWait == 0 {
		t.Fatal("expected nonzero barrier wait")
	}
}

const time5ms = 5 * sim.Millisecond

// TestConfigValidate pins which variant combinations Validate refuses
// and that NewSystem panics with exactly Validate's message.  The
// accepted rows are the configurations the harness ships: the paper's
// protocol, its eager, tree and eager-tree variants, and the two
// manager placements.
func TestConfigValidate(t *testing.T) {
	with := func(edit func(*Config)) Config {
		cfg := DefaultConfig()
		edit(&cfg)
		return cfg
	}
	lossy := vnet.FDDI()
	lossy.Faults = vnet.FaultConfig{Seed: 7, Loss: 0.05}
	cases := []struct {
		name string
		cfg  Config
		net  vnet.Config
		err  string // "": accepted
	}{
		{"tmk", DefaultConfig(), vnet.FDDI(), ""},
		{"tmk/lossy", DefaultConfig(), lossy, ""},
		{"tmk-sc", with(func(c *Config) { c.EagerInvalidate = true }), lossy, ""},
		{"tmk-tree", with(func(c *Config) { c.TreeBarrier = 2 }), vnet.FDDI(), ""},
		{"tmk-sc-tree", with(func(c *Config) { c.EagerInvalidate, c.TreeBarrier, c.TreeFanout = true, 2, 4 }), vnet.FDDI(), ""},
		{"central lock manager", with(func(c *Config) { c.CentralLockMgr = true }), vnet.FDDI(), ""},
		{"spread barrier manager", with(func(c *Config) { c.SpreadBarrierMgr = true }), vnet.FDDI(), ""},
		{"zero page", with(func(c *Config) { c.PageSize = 0 }), vnet.FDDI(),
			"tmk: page size must be a positive multiple of 8"},
		{"odd page", with(func(c *Config) { c.PageSize = 1020 }), vnet.FDDI(),
			"tmk: page size must be a positive multiple of 8"},
		{"tree radix 1", with(func(c *Config) { c.TreeBarrier = 1 }), vnet.FDDI(),
			"tmk: TreeBarrier radix must be >= 2"},
		{"tree radix -2", with(func(c *Config) { c.TreeBarrier = -2 }), vnet.FDDI(),
			"tmk: TreeBarrier radix must be >= 2"},
		{"fanout radix 1", with(func(c *Config) { c.EagerInvalidate, c.TreeFanout = true, 1 }), vnet.FDDI(),
			"tmk: TreeFanout radix must be >= 2"},
		{"fanout without eager", with(func(c *Config) { c.TreeFanout = 4 }), vnet.FDDI(),
			"tmk: TreeFanout requires EagerInvalidate"},
		{"tree with spread manager", with(func(c *Config) { c.TreeBarrier, c.SpreadBarrierMgr = 2, true }), vnet.FDDI(),
			"tmk: TreeBarrier and SpreadBarrierMgr are mutually exclusive"},
		{"tree on lossy network", with(func(c *Config) { c.TreeBarrier = 2 }), lossy,
			"tmk: TreeBarrier requires a fault-free network"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(tc.net)
		if got := fmt.Sprint(err); (err == nil) != (tc.err == "") || (err != nil && got != tc.err) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.err)
		}
		var panicked any
		func() {
			defer func() { panicked = recover() }()
			NewSystem(sim.NewEngine(), vnet.New(tc.net), 4, tc.cfg)
		}()
		if got := fmt.Sprint(panicked); (panicked == nil) != (tc.err == "") || (panicked != nil && got != tc.err) {
			t.Errorf("%s: NewSystem panicked with %v, want %q", tc.name, panicked, tc.err)
		}
	}
}
