package ilink

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

func TestParentNonzerosDeterministic(t *testing.T) {
	cfg := small()
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

// parity runs a's PVM and TreadMarks programs at n processors, without
// the sequential reference, fails the test unless their outputs agree,
// and returns both results.
func parity(t *testing.T, a *app, n int) (pvmRes, tmkRes core.Result) {
	t.Helper()
	var pvmBody func(*pvm.Proc)
	var tmkBody func(*tmk.Proc)
	var pvmOut, tmkOut func() Output
	pvmRes, err := core.RunPVM(core.Default(n), func(sys *pvm.System) { pvmBody, _, pvmOut = a.PVM(sys) },
		func(p *pvm.Proc) { pvmBody(p) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	tmkRes, err = core.RunTMK(core.Default(n), func(sys *tmk.System) { tmkBody, tmkOut = a.TMK(sys) },
		func(p *tmk.Proc) { tmkBody(p) })
	if err != nil {
		t.Fatal(err)
	}
	if err := pvmOut().Check(tmkOut()); err != nil {
		t.Fatal(err)
	}
	return pvmRes, tmkRes
}

func TestSeqDeterministic(t *testing.T) {
	a := &app{cfg: small()}
	first := seq(t, a)
	if err := first.Check(seq(t, a)); err != nil {
		t.Fatal(err)
	}
	if first.LogLike == 0 {
		t.Fatal("degenerate output")
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	a := newApp(small())
	run(t, core.Seq, a, 1)
	for _, n := range []int{1, 2, 4, 8} {
		run(t, core.TMK, a, n)
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

// The paper: ILINK's high computation-to-communication ratio keeps
// TreadMarks within ~10% of PVM; per-page diff requests still make it
// send several times more messages.
func TestPaperScaleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := Paper()
	cfg.Families = 6
	pvmRes, tmkRes := parity(t, &app{cfg}, 8)
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

// small returns a CI-sized run.
func small() Config {
	return Config{G: 512, Families: 3, FamSize: 4, Cluster: 128, Seed: 533000,
		ElemCost: 500 * sim.Microsecond, InitCost: 2 * sim.Microsecond,
		SumCost: 1 * sim.Microsecond}
}
