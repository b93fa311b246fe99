package ep

import (
	"testing"

	"repro/internal/core"
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
	if first != a.seqOut {
		t.Fatalf("sequential runs differ: %+v vs %+v", first, a.seqOut)
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

// The paper: "Both TreadMarks and PVM achieve a speedup of ~8 using 8
// processors because ... the communication overhead is negligible."
func TestNearLinearSpeedup(t *testing.T) {
	// Use a paper-scale compute/communication ratio (the Small config is
	// deliberately tiny and communication-bound).
	a := newApp(Small())
	a.cfg.Pairs = 1 << 17
	a.cfg.CostScale = 64
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
	res := run(t, core.PVM, newApp(Small()), 8)
	if res.Net.Messages != 7 {
		t.Fatalf("messages = %d, want 7", res.Net.Messages)
	}
}

// TreadMarks communication is small: a lock chain plus a barrier plus a
// handful of diff fetches for the single shared page.
func TestTMKTrafficSmall(t *testing.T) {
	res := run(t, core.TMK, newApp(Small()), 8)
	if res.Net.Messages == 0 || res.Net.Messages > 120 {
		t.Fatalf("tmk messages = %d, want small nonzero", res.Net.Messages)
	}
	if res.Net.Bytes > 100_000 {
		t.Fatalf("tmk bytes = %d, want < 100 KB", res.Net.Bytes)
	}
}
