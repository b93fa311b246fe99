package qsort

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestPartitionProperty(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) < 2 {
			return true
		}
		v := append([]int32(nil), vals...)
		m := partition(v)
		if m <= 0 || m >= len(v) {
			return false
		}
		max := v[0]
		for _, x := range v[:m] {
			if x > max {
				max = x
			}
		}
		for _, x := range v[m:] {
			if x < max {
				return false
			}
		}
		// Multiset preserved.
		count := map[int32]int{}
		for _, x := range vals {
			count[x]++
		}
		for _, x := range v {
			count[x]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBubbleSortsProperty(t *testing.T) {
	f := func(vals []int32) bool {
		v := append([]int32(nil), vals...)
		bubble(v)
		for i := 1; i < len(v); i++ {
			if v[i-1] > v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// run runs a on backend b at n processors, failing the test on error.
func run(t *testing.T, b core.Backend, a core.App, n int) core.Result {
	t.Helper()
	res, err := b.Run(a, core.Base(n))
	if err != nil {
		t.Fatalf("%s n=%d: %v", b.Name(), n, err)
	}
	return res
}

// newApp wraps cfg's program as an App.
func newApp(cfg Config) core.App { return core.NewApp(&app{cfg: cfg}) }

// seq runs a's sequential program alone and returns its output.
func seq(t *testing.T, a *app) Output {
	t.Helper()
	var out Output
	if _, err := core.RunSeq(func(ctx *sim.Ctx) { out = a.Seq(ctx) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSeqSorts(t *testing.T) {
	out := seq(t, &app{small()})
	if !out.Sorted {
		t.Fatal("sequential result not sorted")
	}
	if out.Checksum == 0 {
		t.Fatal("degenerate checksum")
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	a := newApp(small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 4, 8} {
		run(t, core.TMK, a, n)
		// Check compares Sorted too, and the sequential output is sorted.
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPVMMatchesSequential(t *testing.T) {
	a := newApp(small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 4, 8} {
		run(t, core.PVM, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// Diff requests dominate TreadMarks traffic here (paper: ~5x more
// messages than PVM; most are diff requests and responses).
func TestTMKManyMoreMessages(t *testing.T) {
	a := newApp(small())
	const n = 4
	pvmRes := run(t, core.PVM, a, n)
	tmkRes := run(t, core.TMK, a, n)
	if tmkRes.Net.Messages <= pvmRes.Net.Messages {
		t.Fatalf("tmk %d msgs <= pvm %d msgs", tmkRes.Net.Messages, pvmRes.Net.Messages)
	}
	if tmkRes.DiffRequests == 0 {
		t.Fatal("expected diff requests for migrating subarrays")
	}
}

// Paper-scale: TreadMarks reaches 70-95% of PVM's speedup (the paper
// reports a ~20% difference at 8 processors).
func TestPaperScaleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	a := newApp(Paper())
	seq := run(t, core.Seq, a, 1)
	pvmRes := run(t, core.PVM, a, 8)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	tmkRes := run(t, core.TMK, a, 8)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	sp := seq.Time.Seconds() / pvmRes.Time.Seconds()
	st := seq.Time.Seconds() / tmkRes.Time.Seconds()
	if st > sp {
		t.Errorf("tmk speedup %.2f should trail pvm %.2f", st, sp)
	}
	if st < 0.5*sp {
		t.Errorf("tmk speedup %.2f below half of pvm %.2f", st, sp)
	}
}

// refBubble is the sort as it stood before the flat rewrite, kept
// verbatim as the reference the production kernel is differenced
// against: one count per comparison, every swap through memory.
func refBubble(v []int32) int64 {
	var ops int64
	n := len(v)
	for {
		swapped := false
		for i := 1; i < n; i++ {
			ops++
			if v[i-1] > v[i] {
				v[i-1], v[i] = v[i], v[i-1]
				swapped = true
			}
		}
		n--
		if !swapped || n <= 1 {
			return ops
		}
	}
}

// TestBubbleMatchesReferenceProperty: same slice and — because it is
// charged as modeled time — the same comparison count, early exit
// included, on random, sorted, reversed, nearly sorted, few-valued,
// extreme-valued (math.MinInt32 to math.MaxInt32) and long-equal-run
// inputs, tiny ones and ones up to the paper's threshold of 1024.
func TestBubbleMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(141421))
	check := func(name string, in []int32) {
		t.Helper()
		want := append([]int32(nil), in...)
		got := append([]int32(nil), in...)
		wantOps := refBubble(want)
		gotOps := bubble(got)
		if gotOps != wantOps || !slices.Equal(got, want) {
			t.Fatalf("%s, len %d: ops %d, reference %d; slices equal: %v", name, len(in), gotOps, wantOps, slices.Equal(got, want))
		}
	}
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	check("nil", nil)
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(200)
		switch {
		case iter < 9:
			n = iter / 3 // len 0, 1 and 2, three times each
		case iter == 9:
			n = Paper().Threshold
		case iter%10 == 0:
			n = 200 + rng.Intn(Paper().Threshold-199)
		}
		v := make([]int32, n)
		for i := range v {
			v[i] = rng.Int31()
		}
		check("random", v)
		slices.Sort(v)
		check("sorted", v)
		if n > 1 {
			// One element out of place: the early exit fires after a
			// few passes, at a pass count that depends on the direction.
			w := append([]int32(nil), v...)
			i, j := rng.Intn(n), rng.Intn(n)
			w[i], w[j] = w[j], w[i]
			check("nearly sorted", w)
		}
		slices.Reverse(v)
		check("reversed", v)
		for i := range v {
			v[i] = int32(rng.Intn(4))
		}
		check("few values", v)
		for i := range v {
			v[i] = extremes[rng.Intn(len(extremes))]
		}
		check("extremes", v)
		// Runs of one value, each up to half the slice long.
		for i := 0; i < n; {
			x := extremes[rng.Intn(len(extremes))]
			for end := min(n, i+1+rng.Intn(n/2+1)); i < end; i++ {
				v[i] = x
			}
		}
		check("equal runs", v)
	}
}

// BenchmarkBubble sorts one paper-scale leaf: Threshold integers of the
// paper's input, copied fresh each iteration.
func BenchmarkBubble(b *testing.B) {
	cfg := Paper()
	in := cfg.input()[:cfg.Threshold]
	v := make([]int32, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		copy(v, in)
		ops = bubble(v)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ops), "ns/comparison")
}

// small returns a CI-sized problem.
func small() Config {
	return Config{N: 4096, Threshold: 256, Seed: 141421,
		PartCost: 250 * sim.Nanosecond, BubbleCost: 150 * sim.Nanosecond}
}
