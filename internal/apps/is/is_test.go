package is

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestSeqDeterministic(t *testing.T) {
	cfg := Small()
	_, a, err := RunSeq(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := RunSeq(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Check(b); err != nil {
		t.Fatal(err)
	}
	if a.BucketSum == 0 || a.RankSum == 0 {
		t.Fatalf("degenerate output %+v", a)
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	cfg := Small()
	_, want, err := RunSeq(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 8} {
		_, got, err := RunTMK(cfg, core.Default(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := want.Check(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPVMMatchesSequential(t *testing.T) {
	cfg := Small()
	_, want, err := RunSeq(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5, 8} {
		_, got, err := RunPVM(cfg, core.Default(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := want.Check(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// PVM messages per iteration: (n-1) chain + (n-1) broadcast.
func TestPVMMessageCount(t *testing.T) {
	cfg := Small()
	const n = 8
	res, _, err := RunPVM(cfg, core.Default(n))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Iters * 2 * (n - 1))
	if res.Net.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Net.Messages, want)
	}
}

// The diff-accumulation law (paper §3.5): per iteration PVM moves
// 2*(n-1)*b of bucket data while TreadMarks moves about n*(n-1)*b, so the
// data ratio approaches n/2.
func TestDiffAccumulationDataRatio(t *testing.T) {
	cfg := PaperLarge()
	cfg.Iters = 3 // ratio per iteration is stable
	const n = 8
	pvmRes, _, err := RunPVM(cfg, core.Default(n))
	if err != nil {
		t.Fatal(err)
	}
	tmkRes, _, err := RunTMK(cfg, core.Default(n))
	if err != nil {
		t.Fatal(err)
	}
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
	const n = 8
	pvmRes, _, err := RunPVM(cfg, core.Default(n))
	if err != nil {
		t.Fatal(err)
	}
	tmkRes, _, err := RunTMK(cfg, core.Default(n))
	if err != nil {
		t.Fatal(err)
	}
	gap := tmkRes.Time.Seconds() / pvmRes.Time.Seconds()
	if gap < 1.5 {
		t.Fatalf("IS-Large gap = %.2fx (tmk %.3fs pvm %.3fs), want ~2x",
			gap, tmkRes.Time.Seconds(), pvmRes.Time.Seconds())
	}
	if gap > 3.0 {
		t.Fatalf("IS-Large gap = %.2fx implausibly large", gap)
	}
}

// IS-Small: bucket array fits in one page, so TreadMarks' penalty is much
// smaller than IS-Large's 32-page penalty.
func TestISSmallCloserThanISLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	gap := func(cfg Config) float64 {
		cfg.Iters = 5
		const n = 8
		pvmRes, _, err := RunPVM(cfg, core.Default(n))
		if err != nil {
			t.Fatal(err)
		}
		tmkRes, _, err := RunTMK(cfg, core.Default(n))
		if err != nil {
			t.Fatal(err)
		}
		return tmkRes.Time.Seconds() / pvmRes.Time.Seconds()
	}
	smallGap := gap(PaperSmall())
	largeGap := gap(PaperLarge())
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
