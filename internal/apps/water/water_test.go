package water

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
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
	if first.ForceSum == 0 || first.PosSum == 0 {
		t.Fatalf("degenerate output %+v", first)
	}
}

func TestInteractionWindowCoversForceTargets(t *testing.T) {
	for _, mols := range []int{64, 288} {
		for nprocs := 1; nprocs <= 8; nprocs++ {
			for id := 0; id < nprocs; id++ {
				window := map[int]bool{}
				for _, q := range interactionWindow(mols, nprocs, id) {
					window[q] = true
				}
				lo, hi := chunk(mols, nprocs, id)
				half := mols / 2
				for a := lo; a < hi; a++ {
					for off := 1; off <= half; off++ {
						b := (a + off) % mols
						q := owner(mols, nprocs, b)
						if q != id && !window[q] {
							t.Fatalf("mols=%d n=%d id=%d: owner %d of molecule %d not in window",
								mols, nprocs, id, q, b)
						}
					}
				}
			}
		}
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

// Water-1728 narrows the TreadMarks/PVM gap relative to Water-288: the
// larger run has a higher computation-to-communication ratio and less
// false sharing (the paper's central Water observation).
func TestLargerInputNarrowsGap(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	gap := func(cfg Config) float64 {
		pvmRes, tmkRes := parity(t, &app{cfg: cfg}, 8)
		return tmkRes.Time.Seconds() / pvmRes.Time.Seconds()
	}
	small := gap(Paper288())
	cfgLarge := Paper1728()
	cfgLarge.Steps = 2 // keep the test quick; per-step ratios unchanged
	large := gap(cfgLarge)
	if large >= small {
		t.Fatalf("Water-1728 gap %.3f should be below Water-288 gap %.3f", large, small)
	}
	if large > 1.35 {
		t.Fatalf("Water-1728 gap %.3f too large (paper: within ~10%%)", large)
	}
	if small > 2.0 {
		t.Fatalf("Water-288 gap %.3f too large (paper: ~25-40%%)", small)
	}
}

// At 8 processors TreadMarks sends several times more data than PVM on
// Water-288 (false sharing + diff accumulation; paper: ~2.5x).
func TestWater288DataRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	a := newApp(Paper288())
	pvmRes := run(t, core.PVM, a, 8)
	tmkRes := run(t, core.TMK, a, 8)
	ratio := float64(tmkRes.Net.Bytes) / float64(pvmRes.Net.Bytes)
	if ratio < 1.2 {
		t.Fatalf("data ratio %.2f: TreadMarks should send more data", ratio)
	}
	if ratio > 8 {
		t.Fatalf("data ratio %.2f implausibly large", ratio)
	}
}

// small returns a CI-sized problem.
func small() Config {
	return Config{Mols: 64, Steps: 3, Seed: 602214,
		PairCost: 15 * sim.Microsecond, MolCost: 5 * sim.Microsecond}
}
