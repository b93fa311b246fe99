package tmk

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/vnet"
)

// TestConvergenceProperty: random seeded workloads — each processor
// writes a disjoint, pseudo-random set of slots between barriers — must
// leave every processor with an identical view of shared memory.
func TestConvergenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := 2 + rng.Intn(3) // 2..4
		slots := 256 + rng.Intn(1024)
		rounds := 1 + rng.Intn(3)
		// Precompute per-round, per-proc disjoint write sets.
		type write struct {
			slot int
			val  int64
		}
		plan := make([][][]write, rounds)
		for r := range plan {
			plan[r] = make([][]write, nprocs)
			perm := rng.Perm(slots)
			i := 0
			for p := 0; p < nprocs; p++ {
				cnt := rng.Intn(slots / nprocs)
				for k := 0; k < cnt; k++ {
					plan[r][p] = append(plan[r][p], write{perm[i], rng.Int63n(1 << 40)})
					i++
				}
			}
		}
		eng := sim.NewEngine()
		net := vnet.New(vnet.FDDI())
		sys := NewSystem(eng, net, nprocs, DefaultConfig())
		base := sys.Malloc(8 * slots)
		views := make([][]int64, nprocs)
		for p := 0; p < nprocs; p++ {
			id := p
			sys.Spawn(id, func(pr *Proc) {
				arr := pr.I64Array(base, slots)
				for r := 0; r < rounds; r++ {
					for _, w := range plan[r][id] {
						arr.Set(w.slot, w.val)
					}
					pr.Barrier(r)
				}
				// Read back the whole region.
				out := make([]int64, slots)
				for i := 0; i < slots; i++ {
					out[i] = arr.At(i)
				}
				views[id] = out
			})
		}
		if err := eng.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for p := 1; p < nprocs; p++ {
			for i := 0; i < slots; i++ {
				if views[p][i] != views[0][i] {
					t.Logf("seed %d: proc %d slot %d: %d vs %d",
						seed, p, i, views[p][i], views[0][i])
					return false
				}
			}
		}
		// And the final content matches the last write per slot.
		want := make([]int64, slots)
		for r := 0; r < rounds; r++ {
			for p := 0; p < nprocs; p++ {
				for _, w := range plan[r][p] {
					want[w.slot] = w.val
				}
			}
		}
		for i := 0; i < slots; i++ {
			if views[0][i] != want[i] {
				t.Logf("seed %d: slot %d = %d, want %d", seed, i, views[0][i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestLockStressTotalOrder: many processors hammer several locks with
// staggered timing; per-lock counters must total exactly and the final
// values must be visible everywhere.
func TestLockStressTotalOrder(t *testing.T) {
	const nprocs, nlocks, rounds = 6, 3, 7
	eng, sys := world(nprocs)
	ctrs := sys.MallocPageAligned(8 * nlocks)
	runAll(t, eng, sys, func(p *Proc) {
		rng := rand.New(rand.NewSource(int64(p.ID()) + 1))
		for r := 0; r < rounds; r++ {
			lk := (p.ID() + r) % nlocks
			p.Compute(sim.Time(rng.Intn(500)) * sim.Microsecond)
			p.LockAcquire(lk)
			addr := ctrs + Addr(8*lk)
			p.WriteI64(addr, p.ReadI64(addr)+1)
			p.LockRelease(lk)
		}
		p.Barrier(0)
		for lk := 0; lk < nlocks; lk++ {
			want := int64(0)
			for q := 0; q < nprocs; q++ {
				for r := 0; r < rounds; r++ {
					if (q+r)%nlocks == lk {
						want++
					}
				}
			}
			if got := p.ReadI64(ctrs + Addr(8*lk)); got != want {
				t.Errorf("proc %d: lock %d counter = %d, want %d", p.ID(), lk, got, want)
			}
		}
	})
}

// TestInitBytesSpansPages: preloaded data crossing page boundaries is
// visible everywhere, including the tail page.
func TestInitBytesSpansPages(t *testing.T) {
	eng, sys := world(2)
	const n = 1500 // 12000 bytes: spans 3 pages
	a := sys.Malloc(8 * n)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 7)
	}
	sys.InitI64(a, vals)
	runAll(t, eng, sys, func(p *Proc) {
		arr := p.I64Array(a, n)
		for _, i := range []int{0, 511, 512, 1023, 1024, n - 1} {
			if got := arr.At(i); got != int64(i*7) {
				t.Errorf("proc %d: [%d] = %d, want %d", p.ID(), i, got, i*7)
			}
		}
	})
}

// TestInterleavedLocksAndBarriers: locks inside barrier rounds — write
// notices must flow through both channels without duplication.
func TestInterleavedLocksAndBarriers(t *testing.T) {
	const nprocs = 4
	eng, sys := world(nprocs)
	a := sys.Malloc(8 * 2)
	runAll(t, eng, sys, func(p *Proc) {
		for r := 0; r < 4; r++ {
			p.LockAcquire(0)
			p.WriteI64(a, p.ReadI64(a)+1)
			p.LockRelease(0)
			p.Barrier(2 * r)
			// Everyone observes the same running total.
			want := int64((r + 1) * nprocs)
			if got := p.ReadI64(a); got != want {
				t.Errorf("proc %d round %d: %d, want %d", p.ID(), r, got, want)
			}
			p.Barrier(2*r + 1)
		}
	})
}

// TestManyPagesSparseWrites: writers touch one word per page across many
// pages; readers fetch every page with one small diff each.
func TestManyPagesSparseWrites(t *testing.T) {
	const pages = 40
	eng, sys := world(2)
	a := sys.MallocPageAligned(4096 * pages)
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 0 {
			for pg := 0; pg < pages; pg++ {
				p.WriteI64(a+Addr(pg*4096), int64(pg+1))
			}
		}
		p.Barrier(0)
		if p.ID() == 1 {
			before := p.DiffBytes
			for pg := 0; pg < pages; pg++ {
				if got := p.ReadI64(a + Addr(pg*4096)); got != int64(pg+1) {
					t.Errorf("page %d: %d", pg, got)
				}
			}
			moved := p.DiffBytes - before
			if moved > pages*64 {
				t.Errorf("sparse writes moved %d diff bytes, want < %d", moved, pages*64)
			}
			if p.DiffRequests != pages {
				t.Errorf("diff requests = %d, want %d", p.DiffRequests, pages)
			}
		}
	})
}

// TestCoverScratchReuse: consecutive faults with different cover shapes.
// The reader faults on a page with two concurrent writers (two-target
// cover), then pages with a single writer (one-target cover), round after
// round — the reused cover scratch (target slots and their want lists)
// and the per-fault request objects must not leak state between faults of
// different shapes.
func TestCoverScratchReuse(t *testing.T) {
	const rounds = 6
	eng, sys := world(3)
	a := sys.MallocPageAligned(4096 * 3)
	runAll(t, eng, sys, func(p *Proc) {
		for r := 0; r < rounds; r++ {
			base := int64(100 * r)
			switch p.ID() {
			case 0:
				p.WriteI64(a, base+1)      // page 0, writer A
				p.WriteI64(a+4096, base+2) // page 1, sole writer
			case 1:
				p.WriteI64(a+8, base+3)      // page 0, writer B
				p.WriteI64(a+2*4096, base+4) // page 2, sole writer
			}
			p.Barrier(2 * r)
			if p.ID() == 2 {
				for _, c := range []struct {
					at   Addr
					want int64
				}{{a, base + 1}, {a + 8, base + 3}, {a + 4096, base + 2}, {a + 2*4096, base + 4}} {
					if got := p.ReadI64(c.at); got != c.want {
						t.Errorf("round %d addr %d: got %d, want %d", r, c.at, got, c.want)
					}
				}
			}
			p.Barrier(2*r + 1)
		}
	})
}

// referencePendingOrder is the order applyPending's doc comment promises,
// computed the straightforward way: repeatedly take, in (proc, idx) order,
// the first pending notice that no other pending notice happens before —
// the lexicographically smallest topological extension of happens-before.
func referencePendingOrder(recs [][]*IntervalRec, pending []diffWant) []diffWant {
	left := append([]diffWant(nil), pending...)
	sort.Slice(left, func(i, j int) bool {
		if left[i].Proc != left[j].Proc {
			return left[i].Proc < left[j].Proc
		}
		return left[i].Idx < left[j].Idx
	})
	var out []diffWant
	for len(left) > 0 {
		pick := -1
		for i, w := range left {
			vc := recs[w.Proc][w.Idx].VC
			minimal := true
			for j, x := range left {
				if j == i {
					continue
				}
				if (x.Proc == w.Proc && x.Idx < w.Idx) || (x.Proc != w.Proc && vc.CoversInterval(x.Proc, x.Idx)) {
					minimal = false
					break
				}
			}
			if minimal {
				pick = i
				break
			}
		}
		if pick < 0 {
			panic("reference: cycle in happens-before")
		}
		out = append(out, left[pick])
		left = append(left[:pick], left[pick+1:]...)
	}
	return out
}

// TestApplyPendingOrderProperty: for random synchronization histories of
// up to 256 writers — most of which hear from only a few others, so the
// interval timestamps are sparse — applyPending must apply a page's
// pending diffs in exactly the reference order.  The order is read back
// off the page: the diff of notice a writes, for every other notice b, one
// byte that only those two diffs write, so the page ends up recording
// which of each pair came last.  The histories must reach both lazy
// paths of the readiness test: a head whose blocker drains, and a head
// whose blocker clears and which then blocks on a later component.
func TestApplyPendingOrderProperty(t *testing.T) {
	const maxPending = 120
	cfg := DefaultConfig()
	cfg.PageSize = maxPending * maxPending
	drained := 0 // notices whose blocker was another writer's last pending notice
	resumed := 0 // heads blocked again after their blocker cleared
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(256) // writers 0..w-1; the observer is processor w
		n := w + 1
		pSync, pWrite := r.Float64(), 0.2+0.8*r.Float64()
		recs := randomHistory(r, w, n, 4*w, pSync)
		var all []diffWant
		for q := 0; q < w; q++ {
			for _, rec := range recs[q] {
				all = append(all, diffWant{Proc: q, Idx: rec.Idx})
			}
		}
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		var pending []diffWant
		for _, x := range all {
			if len(pending) < maxPending && r.Float64() < pWrite {
				pending = append(pending, x)
			}
		}
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].Proc != pending[j].Proc {
				return pending[i].Proc < pending[j].Proc
			}
			return pending[i].Idx < pending[j].Idx
		})
		k := len(pending)
		want := referencePendingOrder(recs, pending)
		resumed += blockResumes(recs, pending)
		last := make([]int, w) // per writer: its last pending interval, -1 if none
		for q := range last {
			last[q] = -1
		}
		for _, x := range pending {
			last[x.Proc] = x.Idx
		}
		for _, x := range pending {
			for q := 0; q < w; q++ {
				if q != x.Proc && last[q] >= 0 && recs[x.Proc][x.Idx].VC.CoversInterval(q, last[q]) {
					drained++
					break
				}
			}
		}

		// Notices reach a page in any interleaving that keeps each
		// writer's in interval order.
		wn := append([]diffWant(nil), pending...)
		r.Shuffle(k, func(i, j int) { wn[i], wn[j] = wn[j], wn[i] })
		next := make([]int, w)
		byWriter := make([][]int, w)
		for _, x := range pending {
			byWriter[x.Proc] = append(byWriter[x.Proc], x.Idx)
		}
		for i, x := range wn {
			wn[i].Idx = byWriter[x.Proc][next[x.Proc]]
			next[x.Proc]++
		}

		eng := sim.NewEngine()
		sys := NewSystem(eng, vnet.New(vnet.FDDI()), n, cfg)
		sys.Malloc(cfg.PageSize)
		var data []byte
		sys.Spawn(w, func(p *Proc) {
			p.recs = recs
			pg := p.pages[0]
			pg.wn = wn
			for a, x := range pending { // ascending idx per writer, as storeDiff requires
				d := &Diff{}
				for b := range pending {
					if b == a {
						continue
					}
					lo, hi, mark := a, b, byte(1)
					if b < a {
						lo, hi, mark = b, a, 2
					}
					d.Runs = append(d.Runs, Run{Off: lo*k + hi, Data: []byte{mark}})
				}
				p.storeDiff(pg, x.Proc, x.Idx, d)
			}
			p.applyPending(0)
			data = pg.data
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}

		// Notice a's position is the number of notices it came after.
		got := make([]diffWant, k)
		seen := make([]bool, k)
		for a, x := range pending {
			pos := 0
			for b := range pending {
				switch {
				case a < b && data[a*k+b] == 1, b < a && data[b*k+a] == 2:
					pos++
				}
			}
			if seen[pos] {
				t.Fatalf("seed %d: page does not record a total order", seed)
			}
			seen[pos], got[pos] = true, x
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (%d writers, %d notices): position %d applied %+v, reference %+v",
					seed, w, k, i, got[i], want[i])
			}
		}
	}
	if drained == 0 {
		t.Fatal("no generated history blocks a head on a writer that drains mid-merge")
	}
	if resumed == 0 {
		t.Fatal("no generated history blocks a head again after its blocker clears")
	}
}

// blockResumes replays applyPending's scan — writers ascending, apply the
// first ready head, restart — and counts the times a blocked head, its
// blocking component cleared, was found blocked by a later component of
// the same timestamp: the case where the readiness walk resumes midway.
func blockResumes(recs [][]*IntervalRec, pending []diffWant) int {
	idxs := map[int][]int{}
	var writers []int
	for _, x := range pending {
		if len(idxs[x.Proc]) == 0 {
			writers = append(writers, x.Proc)
		}
		idxs[x.Proc] = append(idxs[x.Proc], x.Idx)
	}
	sort.Ints(writers)
	head := func(q int) int { // -1: drained (or never pending)
		if len(idxs[q]) == 0 {
			return -1
		}
		return idxs[q][0]
	}
	blockedAt := map[int]int{}
	resumes := 0
	for left := len(pending); left > 0; left-- {
		for _, q := range writers {
			h := head(q)
			if h < 0 {
				continue
			}
			vc := recs[q][h].VC
			b := -1
			for i, r := range vc.ps {
				if int(r) != q && head(int(r)) >= 0 && vc.vs[i] > int32(head(int(r))) {
					b = i
					break
				}
			}
			if b >= 0 {
				if prev, ok := blockedAt[q]; ok && prev != b {
					resumes++
				}
				blockedAt[q] = b
				continue
			}
			delete(blockedAt, q)
			idxs[q] = idxs[q][1:]
			break
		}
	}
	return resumes
}

// vcCountsMismatch returns the first writer q whose entry in p's vector
// timestamp differs from the number of q's records p has filed, or -1:
// the Proc.vc invariant that causal readiness and applyRecords' batched
// raise rest on.
func vcCountsMismatch(p *Proc) int {
	for q := range p.recs {
		if int(p.vc.Get(q)) != len(p.recs[q]) {
			return q
		}
	}
	return -1
}

// TestVCMatchesRecordCounts pins the Proc.vc invariant — entry q equals
// the number of q's records filed — at every synchronization point and
// after the run, on every processor, across the four protocol variants
// at P = 4, 16 and 64, the two manager placements, and the two variants
// that run on a lossy network under 5 % loss and reordering.  The workload takes per-page locks on pages many
// processors write (grants and faults merging notices from many
// writers) between barriers.
func TestVCMatchesRecordCounts(t *testing.T) {
	eager := DefaultConfig()
	eager.EagerInvalidate = true
	tree := DefaultConfig()
	tree.TreeBarrier = 2
	eagerTree := eager
	eagerTree.TreeBarrier, eagerTree.TreeFanout = 2, 4
	centralLocks := DefaultConfig()
	centralLocks.CentralLockMgr = true
	spreadBarriers := DefaultConfig()
	spreadBarriers.SpreadBarrierMgr = true
	lossy := vnet.FDDI()
	lossy.Faults = vnet.FaultConfig{Seed: 7, Loss: 0.05, Reorder: 0.05}
	type variant struct {
		name string
		cfg  Config
		net  vnet.Config
		ps   []int
	}
	variants := []variant{
		{"tmk", DefaultConfig(), vnet.FDDI(), []int{4, 16, 64}},
		{"tmk-sc", eager, vnet.FDDI(), []int{4, 16, 64}},
		{"tmk-tree", tree, vnet.FDDI(), []int{4, 16, 64}},
		{"tmk-sc-tree", eagerTree, vnet.FDDI(), []int{4, 16, 64}},
		{"tmk/mgr=proc0", centralLocks, vnet.FDDI(), []int{4, 16}},
		{"tmk/mgr=spread", spreadBarriers, vnet.FDDI(), []int{4, 16}},
		{"tmk/lossy", DefaultConfig(), lossy, []int{4, 16}},
		{"tmk-sc/lossy", eager, lossy, []int{4, 16}},
	}
	if testing.Short() {
		for i := range variants {
			variants[i].ps = variants[i].ps[:1]
		}
	}
	for _, v := range variants {
		for _, n := range v.ps {
			eng := sim.NewEngine()
			sys := NewSystem(eng, vnet.New(v.net), n, v.cfg)
			base := sys.MallocPageAligned(4096 * 8)
			var bad []string
			check := func(p *Proc, at string) {
				if q := vcCountsMismatch(p); q >= 0 {
					bad = append(bad, fmt.Sprintf("proc %d %s: vc[%d] = %d, %d records filed",
						p.ID(), at, q, p.vc.Get(q), len(p.recs[q])))
				}
			}
			for i := 0; i < n; i++ {
				sys.Spawn(i, func(p *Proc) {
					for r := 0; r < 3; r++ {
						lockedPageWrites(p, r, base, func() { check(p, "after a grant") })
						p.Barrier(r)
						check(p, "after a barrier")
						p.ReadI64(base + Addr(4096*(r%8)))
					}
				})
			}
			err := eng.Run()
			if len(bad) > 0 { // first: a broken invariant can make the run panic later
				t.Fatalf("%s P=%d: %d violations, first: %s", v.name, n, len(bad), bad[0])
			}
			if err != nil {
				t.Fatalf("%s P=%d: %v", v.name, n, err)
			}
			for i := 0; i < n; i++ {
				check(sys.Proc(i), "at the end")
			}
			if len(bad) > 0 {
				t.Fatalf("%s P=%d: at the end: %s", v.name, n, bad[0])
			}
			if v.net.Faults.Lossy() && sys.Stats().Dropped == 0 {
				t.Errorf("%s P=%d: nothing was dropped", v.name, n)
			}
		}
	}
}
