package sor

import (
	"math"
	"math/rand"
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
	for _, zero := range []bool{true, false} {
		a := &app{Small(zero)}
		first := seq(t, a)
		if err := first.Check(seq(t, a)); err != nil {
			t.Fatalf("zero=%v: %v", zero, err)
		}
		if first.Checksum == 0 {
			t.Fatalf("zero=%v: degenerate checksum", zero)
		}
	}
}

func TestTMKMatchesSequential(t *testing.T) {
	for _, zero := range []bool{true, false} {
		a := NewApp(Small(zero))
		run(t, core.Seq, a, 1)
		for _, n := range []int{1, 2, 4, 8} {
			run(t, core.TMK, a, n)
			if err := a.Check(); err != nil {
				t.Fatalf("zero=%v n=%d: %v", zero, n, err)
			}
		}
	}
}

func TestPVMMatchesSequential(t *testing.T) {
	for _, zero := range []bool{true, false} {
		a := NewApp(Small(zero))
		run(t, core.Seq, a, 1)
		for _, n := range []int{1, 2, 4, 8} {
			run(t, core.PVM, a, n)
			if err := a.Check(); err != nil {
				t.Fatalf("zero=%v n=%d: %v", zero, n, err)
			}
		}
	}
}

// The paper's message accounting: per color sweep, PVM sends 2*(n-1)
// messages; TreadMarks sends 2*(n-1) for the barrier plus ~8*(n-1) to
// page in the boundary-row diffs, about 5x more.
func TestMessageRatioNearFive(t *testing.T) {
	cfg := Small(false)
	cfg.Sweeps = 10
	a := NewApp(cfg)
	const n = 8
	pvmRes := run(t, core.PVM, a, n)
	tmkRes := run(t, core.TMK, a, n)
	// PVM: 2*(n-1) per sweep plus n-1 residual messages.
	wantPVM := int64(cfg.Sweeps*2*(n-1) + (n - 1))
	if pvmRes.Net.Messages != wantPVM {
		t.Errorf("pvm messages = %d, want %d", pvmRes.Net.Messages, wantPVM)
	}
	ratio := float64(tmkRes.Net.Messages) / float64(pvmRes.Net.Messages)
	if ratio < 3.5 || ratio > 7 {
		t.Errorf("tmk/pvm message ratio = %.2f (tmk=%d pvm=%d), want ~5",
			ratio, tmkRes.Net.Messages, pvmRes.Net.Messages)
	}
}

// SOR-Zero: most of the matrix stays zero, so TreadMarks diffs are tiny
// and it ships *less* data than PVM (which sends whole rows regardless).
func TestZeroCaseTMKSendsLessData(t *testing.T) {
	a := NewApp(Small(true))
	const n = 4
	pvmRes := run(t, core.PVM, a, n)
	tmkRes := run(t, core.TMK, a, n)
	if tmkRes.Net.Bytes >= pvmRes.Net.Bytes {
		t.Fatalf("tmk bytes = %d, pvm bytes = %d: TreadMarks should send less on SOR-Zero",
			tmkRes.Net.Bytes, pvmRes.Net.Bytes)
	}
}

// SOR-Zero runs slower sequentially than SOR-Nonzero (underflow traps),
// and exhibits load imbalance that hurts both systems' speedups.
func TestZeroSlowerThanNonzero(t *testing.T) {
	zRes := run(t, core.Seq, NewApp(Small(true)), 1)
	nzRes := run(t, core.Seq, NewApp(Small(false)), 1)
	if zRes.Time <= nzRes.Time {
		t.Fatalf("zero %v should be slower than nonzero %v", zRes.Time, nzRes.Time)
	}
}

// TreadMarks stays close to PVM on SOR at paper-like scale (the paper
// reports within ~10%); at 8 processors the gap must not blow up.
func TestTMKWithinReasonOfPVM(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := Paper(false)
	cfg.Sweeps = 10 // half the sweeps to keep the test quick; ratio per sweep unchanged
	a := NewApp(cfg)
	const n = 8
	pvmRes := run(t, core.PVM, a, n)
	tmkRes := run(t, core.TMK, a, n)
	gap := tmkRes.Time.Seconds() / pvmRes.Time.Seconds()
	if gap > 1.25 {
		t.Fatalf("tmk %.3fs vs pvm %.3fs: gap %.2fx too large", tmkRes.Time.Seconds(), pvmRes.Time.Seconds(), gap)
	}
}

// refSweepRow is the row update as it stood before the flat rewrite,
// kept verbatim as the reference the production kernel is differenced
// against: the four boundary tests inside the loop, both costs counted.
func refSweepRow(cfg Config, i int, target, up, same, down []float64, colPar int) sim.Time {
	h := cfg.half()
	var fast, slow int
	for k := 0; k < h; k++ {
		cj := 2*k + colPar
		if i == 0 || i == cfg.M-1 || cj == 0 || cj == cfg.N-1 {
			continue // fixed boundary
		}
		left := same[k-1+colPar]
		right := same[k+colPar]
		sum := up[k] + down[k] + left + right
		v := 0.25 * sum
		target[k] = v
		if v == 0 {
			slow++
		} else {
			fast++
		}
	}
	return sim.Time(fast)*cfg.CostFast + sim.Time(slow)*cfg.CostSlow
}

// TestSweepRowMatchesReferenceProperty: bit-identical target row and
// identical modeled cost for first, last and interior rows, both column
// parities, odd and even N down to a single column pair, and rows
// holding exact zeros and cancelling pairs (the slow-cost case).  For odd
// N the odd-parity color reaches one element past N/2 in the same-row
// neighbor, in the reference as in the kernel, so rows are cut one longer
// there.
func TestSweepRowMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2048))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for k := range v {
			switch rng.Intn(6) {
			case 0, 1:
				v[k] = 0
			case 2:
				v[k] = 1
			case 3:
				v[k] = -1
			case 4:
				v[k] = rng.NormFloat64()
			case 5:
				v[k] = math.Ldexp(rng.Float64(), -1070) // denormal
			}
		}
		return v
	}
	for iter := 0; iter < 2000; iter++ {
		cfg := Config{M: 3 + rng.Intn(5), N: 2 + rng.Intn(40),
			CostFast: sim.Time(1 + rng.Intn(1000)), CostSlow: sim.Time(1 + rng.Intn(3000))}
		rowLen := cfg.half() + cfg.N%2
		i := rng.Intn(cfg.M)
		colPar := rng.Intn(2)
		up, same, down := fill(rowLen), fill(rowLen), fill(rowLen)
		// The fixed first and last rows have no row above or below.
		if i == 0 {
			up = nil
		}
		if i == cfg.M-1 {
			down = nil
		}
		want := fill(rowLen)
		got := append([]float64(nil), want...)
		wantCost := refSweepRow(cfg, i, want, up, same, down, colPar)
		gotCost := sweepRow(cfg, i, got, up, same, down, colPar)
		if gotCost != wantCost {
			t.Fatalf("iter %d: M=%d N=%d row %d colPar %d: cost %d, reference %d", iter, cfg.M, cfg.N, i, colPar, gotCost, wantCost)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("iter %d: M=%d N=%d row %d colPar %d: target[%d] = %v, reference %v", iter, cfg.M, cfg.N, i, colPar, k, got[k], want[k])
			}
		}
	}
}

// initValue gives the starting contents of matrix element (i,j), one
// sine per element: the reference fillRow's table is checked against.
func (c Config) initValue(i, j int) float64 {
	if i == 0 || i == c.M-1 || j == 0 || j == c.N-1 {
		return 1.0
	}
	if c.Zero {
		return 0.0
	}
	// Deterministic nonzero interior.
	return 1.0 + 0.5*math.Sin(float64(i*31+j*17))
}

// TestFillRowMatchesInitValue: every row a filler covers, both colours,
// bit for bit against initValue — for the whole matrix (Seq and
// the TMK setup) and for every P=8 band with its ghost rows (each PVM proc),
// in the paper, Small and BigApps configs and in tiny matrices down to a
// single column pair.
func TestFillRowMatchesInitValue(t *testing.T) {
	cfgs := []Config{Paper(false), Paper(true), Small(false), Small(true), bigConfig(true, 1), bigConfig(false, 1)}
	rng := rand.New(rand.NewSource(3072))
	for range 40 {
		cfgs = append(cfgs, Config{M: 1 + rng.Intn(12), N: 2 + rng.Intn(30), Zero: rng.Intn(4) == 0})
	}
	check := func(cfg Config, lo, hi int) {
		t.Helper()
		f := cfg.filler(lo, hi)
		row := make([]float64, cfg.half())
		for i := lo; i < hi; i++ {
			for colour := range 2 {
				f.fillRow(row, i, colour)
				for k, got := range row {
					want := cfg.initValue(i, 2*k+(i+colour)%2)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("M=%d N=%d zero %v, rows [%d,%d): row %d colour %d [%d] = %v, initValue %v",
							cfg.M, cfg.N, cfg.Zero, lo, hi, i, colour, k, got, want)
					}
				}
			}
		}
	}
	for _, cfg := range cfgs {
		check(cfg, 0, cfg.M)
		const nprocs = 8
		for id := range nprocs {
			lo, hi := band(cfg.M, nprocs, id)
			check(cfg, max(lo-1, 0), min(hi+1, cfg.M))
		}
	}
}

// BenchmarkSweepRow is one interior row of the paper's nonzero problem.
func BenchmarkSweepRow(b *testing.B) {
	cfg := Paper(false)
	red, black := cfg.grids()
	h := cfg.half()
	row := func(arr []float64, i int) []float64 { return arr[i*h : (i+1)*h] }
	b.ReportAllocs()
	b.ResetTimer()
	var cost sim.Time
	for n := 0; n < b.N; n++ {
		i := 1 + n%(cfg.M-2)
		cost += sweepRow(cfg, i, row(red, i), row(black, i-1), row(black, i), row(black, i+1), colParity(i, true))
	}
	if cost == 0 {
		b.Fatal("no work")
	}
}
