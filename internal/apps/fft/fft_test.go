package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestFFT1DKnownValues: FFT of a constant signal is an impulse.
func TestFFT1DImpulse(t *testing.T) {
	n := 8
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = 1
	}
	prodFFT(re, im)
	if math.Abs(re[0]-8) > 1e-12 {
		t.Fatalf("re[0] = %v, want 8", re[0])
	}
	for i := 1; i < n; i++ {
		if math.Abs(re[i]) > 1e-12 || math.Abs(im[i]) > 1e-12 {
			t.Fatalf("bin %d = (%v,%v), want 0", i, re[i], im[i])
		}
	}
}

// Property: Parseval's theorem — energy is preserved up to the factor n.
func TestFFT1DParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (2 + r.Intn(5)) // 4..64
		re := make([]float64, n)
		im := make([]float64, n)
		var e1 float64
		for i := range re {
			re[i] = r.NormFloat64()
			im[i] = r.NormFloat64()
			e1 += re[i]*re[i] + im[i]*im[i]
		}
		prodFFT(re, im)
		var e2 float64
		for i := range re {
			e2 += re[i]*re[i] + im[i]*im[i]
		}
		return math.Abs(e2-float64(n)*e1) < 1e-6*(1+e2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// prodFFT runs passes' per-row transform on re/im.
func prodFFT(re, im []float64) {
	d := make([]float64, 2*len(re))
	for i := range re {
		d[2*i], d[2*i+1] = re[i], im[i]
	}
	newPlan(len(re)).fft(d, make([]float64, len(d)))
	for i := range re {
		re[i], im[i] = d[2*i], d[2*i+1]
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
	if first.Sum == 0 {
		t.Fatal("degenerate checksum")
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

// Release consistency means TreadMarks moves about the same amount of
// data as PVM in the transpose, but through many more (page-sized diff)
// messages — the paper's FFT observation.
func TestSimilarDataManyMoreMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := Paper()
	cfg.Iters = 4 // the first iteration reads preloaded data (no traffic)
	a := newApp(cfg)
	const n = 8
	pvmRes := run(t, core.PVM, a, n)
	tmkRes := run(t, core.TMK, a, n)
	dataRatio := float64(tmkRes.Net.Bytes) / float64(pvmRes.Net.Bytes)
	// TreadMarks pays no traffic on the first (preloaded) iteration, so
	// over 4 iterations the expected ratio is ~3/4.
	if dataRatio < 0.5 || dataRatio > 2.0 {
		t.Errorf("data ratio %.2f, want ~1 (release consistency)", dataRatio)
	}
	msgRatio := float64(tmkRes.Net.Messages) / float64(pvmRes.Net.Messages)
	if msgRatio < 5 {
		t.Errorf("message ratio %.1f, want many more in TreadMarks", msgRatio)
	}
}

// Paper-scale: TreadMarks reaches ~80% of PVM's speedup at 8 processors.
func TestPaperScaleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := Paper()
	cfg.Iters = 3
	pvmRes, tmkRes := parity(t, &app{cfg}, 8)
	gap := tmkRes.Time.Seconds() / pvmRes.Time.Seconds()
	if gap < 1.02 || gap > 1.6 {
		t.Fatalf("gap %.3f (tmk %.2fs pvm %.2fs), want ~1.25",
			gap, tmkRes.Time.Seconds(), pvmRes.Time.Seconds())
	}
}

// refFFT1D, refEvolve and refPasses are the iteration's local work as it
// stood before the twiddle and phase tables, kept verbatim as the
// reference the production kernel is differenced against: the stage
// twiddle from math.Cos/math.Sin per stage per transform, the phase from
// cmplx.Rect per point.
func refFFT1D(re, im []float64) {
	n := len(re)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			cwr, cwi := 1.0, 0.0
			for k := 0; k < length/2; k++ {
				i0, i1 := start+k, start+k+length/2
				xr := re[i1]*cwr - im[i1]*cwi
				xi := re[i1]*cwi + im[i1]*cwr
				re[i1], im[i1] = re[i0]-xr, im[i0]-xi
				re[i0], im[i0] = re[i0]+xr, im[i0]+xi
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
			}
		}
	}
}

func refEvolve(re, im *float64, it, idx int) {
	ph := cmplx.Rect(1, float64((it*31+idx)%64)/64*2*math.Pi)
	r, i := *re, *im
	*re = r*real(ph) - i*imag(ph)
	*im = r*imag(ph) + i*real(ph)
}

func refPasses(cfg Config, data []float64, lo, hi, it int) sim.Time {
	n := cfg.N
	re := make([]float64, n)
	im := make([]float64, n)
	for x := 0; x < hi-lo; x++ {
		for y := 0; y < n; y++ {
			base := 2 * ((x*n + y) * n)
			for z := 0; z < n; z++ {
				re[z], im[z] = data[base+2*z], data[base+2*z+1]
			}
			refFFT1D(re, im)
			for z := 0; z < n; z++ {
				data[base+2*z], data[base+2*z+1] = re[z], im[z]
			}
		}
	}
	for x := 0; x < hi-lo; x++ {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				idx := 2 * ((x*n+y)*n + z)
				re[y], im[y] = data[idx], data[idx+1]
			}
			refFFT1D(re, im)
			for y := 0; y < n; y++ {
				idx := 2 * ((x*n+y)*n + z)
				data[idx], data[idx+1] = re[y], im[y]
			}
		}
	}
	for x := 0; x < hi-lo; x++ {
		for yz := 0; yz < n*n; yz++ {
			idx := 2 * (x*n*n + yz)
			refEvolve(&data[idx], &data[idx+1], it, (lo+x)*n*n+yz)
		}
	}
	levels := 2*ilog2(n) + 1
	return sim.Time((hi-lo)*n*n*levels) * cfg.PointCost
}

// TestPassesMatchesReferenceProperty: over random cube edges up to the
// paper's 64, plane ranges (empty and whole-cube included) and iteration
// numbers, the buffer is math.Float64bits-identical and the modeled cost
// equal.  Each row of the input is normal noise, all -0, or a mix of +0,
// -0 and 1, so a butterfly that skips a multiply by a unit twiddle, or
// otherwise changes the sign of a zero, is caught.  The tables hold the
// results of the same operations on the same arguments, so this is
// identity, not tolerance.
func TestPassesMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(299792))
	negZero := math.Copysign(0, -1)
	for iter := 0; iter < 300; iter++ {
		cfg := Config{N: 2 << rng.Intn(6), PointCost: sim.Time(1 + rng.Intn(3000))}
		lo := rng.Intn(cfg.N + 1)
		hi := lo + rng.Intn(cfg.N+1-lo)
		it := rng.Intn(40)
		want := make([]float64, 2*(hi-lo)*cfg.N*cfg.N)
		for r := 0; r < len(want); r += 2 * cfg.N {
			kind := rng.Intn(3)
			for i := r; i < r+2*cfg.N; i++ {
				switch kind {
				case 0:
					want[i] = rng.NormFloat64()
				case 1:
					want[i] = negZero
				default:
					want[i] = [3]float64{0, negZero, 1}[rng.Intn(3)]
				}
			}
		}
		got := append([]float64(nil), want...)
		wantCost := refPasses(cfg, want, lo, hi, it)
		gotCost := passes(cfg, got, lo, hi, it)
		if gotCost != wantCost {
			t.Fatalf("iter %d: N=%d planes [%d,%d) it %d: cost %d, reference %d", iter, cfg.N, lo, hi, it, gotCost, wantCost)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("iter %d: N=%d planes [%d,%d) it %d: data[%d] = %v, reference %v", iter, cfg.N, lo, hi, it, i, got[i], want[i])
			}
		}
	}
}

// TestInitDataRangeMatchesWhole: a processor's slice of the initial array
// is the same values the whole-array generation puts there.
func TestInitDataRangeMatchesWhole(t *testing.T) {
	cfg := small()
	whole := cfg.initData(0, 2*cfg.points())
	plane := 2 * cfg.N * cfg.N
	for _, nprocs := range []int{1, 3, 8} {
		for id := 0; id < nprocs; id++ {
			lo, hi := span(cfg.N, nprocs, id)
			part := cfg.initData(lo*plane, hi*plane)
			if len(part) != (hi-lo)*plane {
				t.Fatalf("nprocs %d id %d: %d values, want %d", nprocs, id, len(part), (hi-lo)*plane)
			}
			for i, v := range part {
				if math.Float64bits(v) != math.Float64bits(whole[lo*plane+i]) {
					t.Fatalf("nprocs %d id %d: element %d = %v, whole array has %v", nprocs, id, lo*plane+i, v, whole[lo*plane+i])
				}
			}
		}
	}
}

// BenchmarkPasses is one processor's share of an iteration: paper is
// eight of the 64 planes at paper scale, bigp the one 32^3 plane a
// processor holds at P=64, where building the per-call tables is a larger
// share of the work.
func BenchmarkPasses(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n      int
		lo, hi int
	}{{"paper", 64, 8, 16}, {"bigp", 32, 5, 6}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Paper()
			cfg.N = bc.n
			plane := 2 * cfg.N * cfg.N
			init := cfg.initData(bc.lo*plane, bc.hi*plane)
			data := make([]float64, len(init))
			b.ReportAllocs()
			b.ResetTimer()
			var cost sim.Time
			for i := 0; i < b.N; i++ {
				copy(data, init) // repeated passes over one buffer would overflow
				cost += passes(cfg, data, bc.lo, bc.hi, i%cfg.Iters)
			}
			if cost == 0 {
				b.Fatal("no work")
			}
		})
	}
}

// small returns a CI-sized problem.
func small() Config {
	return Config{N: 8, Iters: 3, Seed: 299792, PointCost: 1500 * sim.Nanosecond}
}
