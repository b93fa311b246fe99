package ilink

import (
	"testing"

	"repro/internal/core"
)

func TestParentNonzerosDeterministic(t *testing.T) {
	cfg := Small()
	a := cfg.parentNonzeros(1)
	b := cfg.parentNonzeros(1)
	if len(a) == 0 {
		t.Fatal("no nonzeros")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic nonzeros")
		}
	}
	// Positions strictly increasing and inside the cluster.
	start := cfg.clusterStart(1, 0)
	for i, g := range a {
		if i > 0 && g <= a[i-1] {
			t.Fatal("not increasing")
		}
		if int(g) < start || int(g) >= start+cfg.Cluster {
			t.Fatalf("position %d outside cluster [%d,%d)", g, start, start+cfg.Cluster)
		}
	}
}

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
	a := &app{cfg: Small()}
	run(t, core.Seq, a, 1)
	first := a.seqOut
	run(t, core.Seq, a, 1)
	if err := first.Check(a.seqOut); err != nil {
		t.Fatal(err)
	}
	if first.LogLike == 0 {
		t.Fatal("degenerate output")
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	a := &app{cfg: Small()}
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 4, 8} {
		run(t, core.TMK, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestPVMMatchesSequential(t *testing.T) {
	a := &app{cfg: Small()}
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 4, 8} {
		run(t, core.PVM, a, n)
		if err := a.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// The paper: ILINK's high computation-to-communication ratio keeps
// TreadMarks within ~10% of PVM; per-page diff requests still make it
// send several times more messages.
func TestPaperScaleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	a := &app{cfg: Paper()}
	a.cfg.Families = 6
	pvmRes := run(t, core.PVM, a, 8)
	pvmOut := a.parOut
	tmkRes := run(t, core.TMK, a, 8)
	if err := pvmOut.Check(a.parOut); err != nil {
		t.Fatal(err)
	}
	gap := tmkRes.Time.Seconds() / pvmRes.Time.Seconds()
	if gap > 1.25 {
		t.Fatalf("gap %.3f (tmk %.2fs pvm %.2fs), want within ~10-15%%",
			gap, tmkRes.Time.Seconds(), pvmRes.Time.Seconds())
	}
	if tmkRes.Net.Messages < 2*pvmRes.Net.Messages {
		t.Fatalf("message ratio %.1f, want several times more in TreadMarks",
			float64(tmkRes.Net.Messages)/float64(pvmRes.Net.Messages))
	}
}
