package water

import (
	"fmt"
	"math"
	"math/rand"
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

// refForceRange is forceRange as it stood before its pair loop dropped
// the per-pair wraparound index, kept verbatim (with pairForce) as the
// reference the production kernel is differenced against.
func refForceRange(s *state, lo, hi int, acc []int64) int {
	n := s.cfg.Mols
	half := n / 2
	pairs := 0
	for a := lo; a < hi; a++ {
		pa := s.pos[3*a : 3*a+3]
		for off := 1; off <= half; off++ {
			b := (a + off) % n
			// With even n, pair (a, a+n/2) appears twice (once from each
			// side); keep only the copy from the smaller index.
			if 2*off == n && a >= b {
				continue
			}
			pairs++
			f, ok := pairForce(s.box, s.cut, pa, s.pos[3*b:3*b+3])
			if !ok {
				continue
			}
			for k := 0; k < 3; k++ {
				acc[3*a+k] += f[k]
				acc[3*b+k] -= f[k]
			}
		}
	}
	return pairs
}

// pairForce computes the fixed-point force contribution between two
// molecules under the minimum-image convention, or ok=false outside the
// cutoff.
func pairForce(box, cut float64, pa, pb []float64) (f [3]int64, ok bool) {
	var d [3]float64
	r2 := 0.0
	for k := 0; k < 3; k++ {
		d[k] = pa[k] - pb[k]
		if d[k] > box/2 {
			d[k] -= box
		} else if d[k] < -box/2 {
			d[k] += box
		}
		r2 += d[k] * d[k]
	}
	if r2 >= cut*cut || r2 == 0 {
		return f, false
	}
	// Soft Lennard-Jones-like radial force.
	inv := 1.0 / (r2 + 0.25)
	mag := inv*inv - 0.05*inv
	for k := 0; k < 3; k++ {
		f[k] = int64(math.Round(mag * d[k] * fpScale))
	}
	return f, true
}

// propertyPositions returns n positions uniform in a box of side box,
// with the cases a pair loop can get wrong planted at random molecules:
// coincident molecules (r2 == 0), coordinates of -0 and +0, coordinate
// differences of exactly ±box/2 (the minimum-image tie), and pairs at
// exactly r2 == cut*cut whose r2 a fused multiply-add would round below
// the cutoff.
func propertyPositions(rng *rand.Rand, n int, box, cut float64) []float64 {
	pos := make([]float64, 3*n)
	for i := range pos {
		pos[i] = box * rng.Float64()
	}
	set := func(i int, x, y, z float64) { pos[3*i], pos[3*i+1], pos[3*i+2] = x, y, z }
	plants := max(4, n/16)
	for p := 0; p < plants; p++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		z := box * rng.Float64()
		switch p % 4 {
		case 0: // coincident
			copy(pos[3*j:3*j+3], pos[3*i:3*i+3])
		case 1: // differences of -0 and +0 on x and y
			set(i, math.Copysign(0, -1), 0, z)
			set(j, 0, math.Copysign(0, -1), z)
		case 2: // a difference of exactly box/2 on one axis, 0 on the others
			k := rng.Intn(3)
			set(i, z, z, z)
			set(j, z, z, z)
			pos[3*i+k], pos[3*j+k] = 0, box/2
		case 3: // r2 == cut*cut exactly, but below it if fused
			if 2*cut >= box {
				continue // boundaryPair's d1 would need the minimum image
			}
			d0, d1 := boundaryPair(rng, cut)
			set(i, 0, 0, z)
			set(j, d0, d1, z)
		}
	}
	return pos
}

// boundaryPair returns a displacement (d0, d1, 0) whose squared length,
// summed one square at a time from zero, is exactly cut*cut, while
// math.FMA(d1, d1, d0*d0) is below it.  d1*d1 is drawn from cut*cut's
// binade, so its rounding is at the sum's last place and a fused add
// can see it.
func boundaryPair(rng *rand.Rand, cut float64) (float64, float64) {
	c2 := cut * cut
	_, exp := math.Frexp(c2)
	low := math.Ldexp(0.5, exp)
	for {
		d1 := math.Sqrt(low + (c2-low)*rng.Float64())
		sq1 := float64(d1 * d1)
		d0 := math.Sqrt(c2 - sq1)
		ulp := math.Nextafter(d0, 2*d0) - d0
		for k := -8; k <= 8; k++ {
			e := d0 + float64(k)*ulp
			if float64(e*e)+sq1 == c2 && math.FMA(d1, d1, float64(e*e)) < c2 {
				return e, d1
			}
		}
	}
}

// TestForceRangeMatchesReferenceProperty: over random [lo,hi) ranges —
// the whole set, single molecules, and windows that wrap past n — the
// kernel must count the same pairs and leave every accumulator entry
// bit-equal to the reference's, at both parities of n and at the
// paper's sizes.  Each set runs at the app's cutoff and at 0.6 box,
// beyond box/2, where a minimum-image tie is inside the cutoff and so
// reaches the forces.
func TestForceRangeMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(602214))
	for _, n := range []int{2, 3, 288, 512, 513, 1728} {
		cfg := Paper288()
		cfg.Mols = n
		box := cfg.box()
		for _, cut := range []float64{cfg.cutoff(), 0.6 * box} {
			s := &state{cfg: cfg, box: box, cut: cut, pos: propertyPositions(rng, n, box, cut)}
			ranges := [][2]int{{0, n}, {0, 1}, {n - 1, n}, {n / 2, n}}
			for r := 0; r < 6; r++ {
				lo := rng.Intn(n)
				hi := lo + 1 + rng.Intn(n-lo)
				if r%2 == 0 {
					hi = lo + 1
				}
				ranges = append(ranges, [2]int{lo, hi})
			}
			for _, r := range ranges {
				want := make([]int64, 3*n)
				for i := range want {
					want[i] = rng.Int63n(1<<40) - 1<<39
				}
				got := append([]int64(nil), want...)
				wantN := refForceRange(s, r[0], r[1], want)
				gotN := s.forceRange(r[0], r[1], got)
				if gotN != wantN {
					t.Fatalf("n=%d cut=%v [%d,%d): %d pairs, reference %d", n, cut, r[0], r[1], gotN, wantN)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d cut=%v [%d,%d): acc[%d] = %d, reference %d", n, cut, r[0], r[1], i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkForceRange is one step's force phase over each paper input:
// forceRange(0, n) at 288 and at 1728 molecules.
func BenchmarkForceRange(b *testing.B) {
	for _, cfg := range []Config{Paper288(), Paper1728()} {
		b.Run(fmt.Sprint(cfg.Mols), func(b *testing.B) {
			s := newState(cfg)
			acc := make([]int64, 3*cfg.Mols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.forceRange(0, cfg.Mols, acc)
			}
		})
	}
}

// small returns a CI-sized problem.
func small() Config {
	return Config{Mols: 64, Steps: 3, Seed: 602214,
		PairCost: 15 * sim.Microsecond, MolCost: 5 * sim.Microsecond}
}
