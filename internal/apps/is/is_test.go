package is

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// run runs a on backend b at n processors, failing the test on error.
func run(t *testing.T, b core.Backend, a *app, n int) core.Result {
	t.Helper()
	res, err := b.Run(a, core.Base(n))
	if err != nil {
		t.Fatalf("%s n=%d: %v", b.Name(), n, err)
	}
	return res
}

func TestSeqDeterministic(t *testing.T) {
	a := newApp(Small())
	run(t, core.Seq, a, 1)
	first := a.seqOut
	run(t, core.Seq, a, 1)
	if err := first.Check(a.seqOut); err != nil {
		t.Fatal(err)
	}
	if first.BucketSum == 0 || first.RankSum == 0 {
		t.Fatalf("degenerate output %+v", first)
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	a := newApp(Small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 3, 8} {
		run(t, core.TMK, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPVMMatchesSequential(t *testing.T) {
	a := newApp(Small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 5, 8} {
		run(t, core.PVM, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// PVM messages per iteration: (n-1) chain + (n-1) broadcast.
func TestPVMMessageCount(t *testing.T) {
	a := newApp(Small())
	const n = 8
	res := run(t, core.PVM, a, n)
	want := int64(a.cfg.Iters * 2 * (n - 1))
	if res.Net.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Net.Messages, want)
	}
}

// gap returns the TreadMarks/PVM time ratio of cfg at n processors; the
// results are for tests that also need the traffic.
func gap(t *testing.T, cfg Config, n int) (ratio float64, tmkRes, pvmRes core.Result) {
	t.Helper()
	a := newApp(cfg)
	pvmRes = run(t, core.PVM, a, n)
	tmkRes = run(t, core.TMK, a, n)
	return tmkRes.Time.Seconds() / pvmRes.Time.Seconds(), tmkRes, pvmRes
}

// The diff-accumulation law (paper §3.5): per iteration PVM moves
// 2*(n-1)*b of bucket data while TreadMarks moves about n*(n-1)*b, so the
// data ratio approaches n/2.
func TestDiffAccumulationDataRatio(t *testing.T) {
	cfg := PaperLarge()
	cfg.Iters = 3 // ratio per iteration is stable
	_, tmkRes, pvmRes := gap(t, cfg, 8)
	ratio := float64(tmkRes.Net.Bytes) / float64(pvmRes.Net.Bytes)
	// The law predicts n/2 = 4 at full diff density; the centered key
	// distribution thins the tail pages, so ~3 is expected.
	if ratio < 2.2 || ratio > 6.5 {
		t.Fatalf("data ratio = %.2f (tmk=%d pvm=%d), want ~n/2=4",
			ratio, tmkRes.Net.Bytes, pvmRes.Net.Bytes)
	}
}

// IS-Large at 8 processors: PVM outperforms TreadMarks by about 2x
// (the paper's headline negative result for DSM).
func TestISLargePVMTwiceAsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := PaperLarge()
	cfg.Iters = 5
	g, tmkRes, pvmRes := gap(t, cfg, 8)
	if g < 1.5 {
		t.Fatalf("IS-Large gap = %.2fx (tmk %.3fs pvm %.3fs), want ~2x",
			g, tmkRes.Time.Seconds(), pvmRes.Time.Seconds())
	}
	if g > 3.0 {
		t.Fatalf("IS-Large gap = %.2fx implausibly large", g)
	}
}

// IS-Small: bucket array fits in one page, so TreadMarks' penalty is much
// smaller than IS-Large's 32-page penalty.
func TestISSmallCloserThanISLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	small, large := PaperSmall(), PaperLarge()
	small.Iters, large.Iters = 5, 5
	smallGap, _, _ := gap(t, small, 8)
	largeGap, _, _ := gap(t, large, 8)
	if smallGap >= largeGap {
		t.Fatalf("small gap %.2f should beat large gap %.2f", smallGap, largeGap)
	}
}

// refCountKeys and refRankChunk are the two passes as they stood before
// the keys were materialised, kept verbatim as the reference the
// production passes are differenced against: every key re-derived from
// its global index where it is used.
func refCountKeys(c Config, ctx *sim.Ctx, lo, hi int) []int32 {
	b := make([]int32, c.Bmax)
	for i := lo; i < hi; i++ {
		b[c.key(i)]++
	}
	ctx.Compute(sim.Time(hi-lo) * c.KeyCost)
	return b
}

func refRankChunk(c Config, ctx *sim.Ctx, counts []int32, lo, hi int) int64 {
	start := make([]int64, c.Bmax)
	var acc int64
	for v := 0; v < c.Bmax; v++ {
		start[v] = acc
		acc += int64(counts[v])
	}
	ctx.Compute(sim.Time(c.Bmax) * c.BktCost)
	var sum int64
	for i := lo; i < hi; i++ {
		k := c.key(i)
		r := start[k]
		sum += r * int64(i%97+1)
	}
	ctx.Compute(sim.Time(hi-lo) * c.KeyCost)
	return sum
}

// TestCountRankMatchReferenceProperty: over random key counts, bucket
// ranges, seeds, costs and spans — empty, single-key and whole-array
// spans included — the counts, the rank sum and the virtual time charged
// by each pass are identical.
func TestCountRankMatchReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	// The body runs on the simulated processor's goroutine: Errorf and
	// return there, not Fatalf.
	_, err := core.RunSeq(func(ctx *sim.Ctx) {
		at := func(f func()) sim.Time {
			t0 := ctx.Now()
			f()
			return ctx.Now() - t0
		}
		for iter := 0; iter < 500; iter++ {
			cfg := Config{Keys: 1 + rng.Intn(5000), Bmax: 1 << rng.Intn(13), Seed: rng.Uint64(),
				KeyCost: sim.Time(1 + rng.Intn(2000)), BktCost: sim.Time(1 + rng.Intn(200))}
			lo := rng.Intn(cfg.Keys + 1)
			hi := lo + rng.Intn(cfg.Keys+1-lo)
			switch rng.Intn(5) {
			case 0:
				hi = lo
			case 1:
				hi = min(lo+1, cfg.Keys)
			case 2:
				lo, hi = 0, cfg.Keys
			}
			var want, got []int32
			var wantSum, gotSum int64
			wantCount := at(func() { want = refCountKeys(cfg, ctx, lo, hi) })
			wantRank := at(func() { wantSum = refRankChunk(cfg, ctx, want, lo, hi) })
			keys := cfg.keys(lo, hi)
			gotCount := at(func() { got = cfg.countKeys(ctx, keys) })
			gotRank := at(func() { gotSum = cfg.rankChunk(ctx, got, keys, lo) })
			switch {
			case !slices.Equal(got, want):
				t.Errorf("iter %d: %+v span [%d,%d): counts differ from the reference", iter, cfg, lo, hi)
			case gotSum != wantSum:
				t.Errorf("iter %d: %+v span [%d,%d): rank sum %d, reference %d", iter, cfg, lo, hi, gotSum, wantSum)
			case gotCount != wantCount || gotRank != wantRank:
				t.Errorf("iter %d: %+v span [%d,%d): charged %d+%d, reference %d+%d", iter, cfg, lo, hi, gotCount, gotRank, wantCount, wantRank)
			default:
				continue
			}
			return
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCountRank is one iteration's two passes over one processor's
// share of the paper's keys (2^20 over 8 processors) on the IS-Large
// bucket range, the keys materialised once outside the loop as in a job.
func BenchmarkCountRank(b *testing.B) {
	cfg := PaperLarge()
	const lo, hi = 1 << 17, 2 << 17
	_, err := core.RunSeq(func(ctx *sim.Ctx) {
		keys := cfg.keys(lo, hi)
		b.ReportAllocs()
		b.ResetTimer()
		var sum int64
		for i := 0; i < b.N; i++ {
			sum += cfg.rankChunk(ctx, cfg.countKeys(ctx, keys), keys, lo)
		}
		if sum == 0 {
			b.Error("no work")
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
