package ep

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

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

func TestSeqDeterministic(t *testing.T) {
	a := &app{small()}
	first := seq(t, a)
	if again := seq(t, a); first != again {
		t.Fatalf("sequential runs differ: %+v vs %+v", first, again)
	}
	if first.Accepted == 0 || first.Q[0] == 0 {
		t.Fatalf("degenerate output: %+v", first)
	}
	// Polar method accepts ~ pi/4 of pairs.
	frac := float64(first.Accepted) / float64(a.cfg.Pairs)
	if frac < 0.75 || frac > 0.82 {
		t.Fatalf("acceptance fraction %v, want ~0.785", frac)
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	a := newApp(small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 3, 8} {
		run(t, core.TMK, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPVMMatchesSequential(t *testing.T) {
	a := newApp(small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 5, 8} {
		run(t, core.PVM, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// The paper: "Both TreadMarks and PVM achieve a speedup of ~8 using 8
// processors because ... the communication overhead is negligible."
func TestNearLinearSpeedup(t *testing.T) {
	// Use a paper-scale compute/communication ratio (the Small config is
	// deliberately tiny and communication-bound).
	cfg := small()
	cfg.Pairs = 1 << 17
	cfg.CostScale = 64
	a := newApp(cfg)
	seq := run(t, core.Seq, a, 1)
	tmkRes := run(t, core.TMK, a, 8)
	pvmRes := run(t, core.PVM, a, 8)
	st := seq.Time.Seconds() / tmkRes.Time.Seconds()
	sp := seq.Time.Seconds() / pvmRes.Time.Seconds()
	if st < 7.0 || sp < 7.0 {
		t.Fatalf("speedups at 8 procs: tmk=%.2f pvm=%.2f, want ~8", st, sp)
	}
}

// PVM sends exactly n-1 user messages (the tally lists).
func TestPVMMessageCount(t *testing.T) {
	res := run(t, core.PVM, newApp(small()), 8)
	if res.Net.Messages != 7 {
		t.Fatalf("messages = %d, want 7", res.Net.Messages)
	}
}

// TreadMarks communication is small: a lock chain plus a barrier plus a
// handful of diff fetches for the single shared page.
func TestTMKTrafficSmall(t *testing.T) {
	res := run(t, core.TMK, newApp(small()), 8)
	if res.Net.Messages == 0 || res.Net.Messages > 120 {
		t.Fatalf("tmk messages = %d, want small nonzero", res.Net.Messages)
	}
	if res.Net.Bytes > 100_000 {
		t.Fatalf("tmk bytes = %d, want < 100 KB", res.Net.Bytes)
	}
}

// small returns a CI-sized problem.
func small() Config {
	return Config{Pairs: 1 << 14, CostScale: 1, PairCost: 3300 * sim.Nanosecond, Seed: 271828}
}

// TestCheckRejectsEachMismatch pins what Check compares: an annulus
// count, the accepted count and either deviate sum that differs fails
// it; sums that differ only by reduction order (a few ulps) pass.
func TestCheckRejectsEachMismatch(t *testing.T) {
	want := seq(t, &app{small()})
	for _, tc := range []struct {
		name string
		edit func(*Output)
		ok   bool
	}{
		{"equal", func(*Output) {}, true},
		{"sums reordered", func(o *Output) { o.SumX = math.Nextafter(math.Nextafter(o.SumX, 0), 0) }, true},
		{"annulus", func(o *Output) { o.Q[9]++ }, false},
		{"accepted", func(o *Output) { o.Accepted-- }, false},
		{"sum x", func(o *Output) { o.SumX += 1e-3 * (1 + math.Abs(o.SumX)) }, false},
		{"sum y", func(o *Output) { o.SumY -= 1e-3 * (1 + math.Abs(o.SumY)) }, false},
	} {
		got := want
		tc.edit(&got)
		if err := want.Check(got); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
