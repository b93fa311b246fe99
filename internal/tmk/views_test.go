package tmk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bulkOp is one step of a TestLoadStoreMatchScalarProperty script: a Load
// or Store of elements [lo,hi) through the float64 or the int32 view.
type bulkOp struct {
	store, i32 bool
	lo, hi     int
	seed       int64 // Store: the values written derive from it
}

// runBulkScript runs script[round][proc] on a fresh three-processor world
// with a barrier after every round, performing each op through Load/Store
// (bulk) or element by element through At/Set, and returns per processor
// everything observable: after each op the values a Load read, then the
// fault count, the number of twinned pages and the virtual clock.
//
// The shared array is words float64s (the int32 view covers the same
// bytes): its first three pages are preloaded, so every processor starts
// with them aliasing the system's image; the rest has never been written
// (nil page data); and it ends, mid-page, exactly at brk.
func runBulkScript(t *testing.T, bulk bool, words int, script [][][]bulkOp) [][]uint64 {
	t.Helper()
	eng, sys := world(len(script[0]))
	a := sys.MallocPageAligned(8 * words)
	if int(a)+8*words != int(sys.brk) {
		t.Fatalf("array ends at %d, brk is %d", int(a)+8*words, sys.brk)
	}
	init := make([]float64, 3*512)
	for i := range init {
		init[i] = float64(i) + 0.25
	}
	sys.InitF64(a, init)
	out := make([][]uint64, sys.N())
	runAll(t, eng, sys, func(p *Proc) {
		f64, i32 := p.F64Array(a, words), p.I32Array(a, 2*words)
		var tr []uint64
		for round, ops := range script {
			for _, op := range ops[p.ID()] {
				n := op.hi - op.lo
				vals := rand.New(rand.NewSource(op.seed))
				switch {
				case op.store && op.i32:
					src := make([]int32, n)
					for i := range src {
						src[i] = int32(vals.Uint32())
					}
					if bulk {
						i32.Store(src, op.lo)
					} else {
						for i, v := range src {
							i32.Set(op.lo+i, v)
						}
					}
				case op.store:
					src := make([]float64, n)
					for i := range src {
						src[i] = math.Float64frombits(vals.Uint64())
					}
					if bulk {
						f64.Store(src, op.lo)
					} else {
						for i, v := range src {
							f64.Set(op.lo+i, v)
						}
					}
				case op.i32:
					dst := make([]int32, n+1) // one spare: Load must stop at hi
					dst[n] = -7
					if bulk {
						i32.Load(dst, op.lo, op.hi)
					} else {
						for i := range dst[:n] {
							dst[i] = i32.At(op.lo + i)
						}
					}
					for _, v := range dst {
						tr = append(tr, uint64(uint32(v)))
					}
				default:
					dst := make([]float64, n+1)
					dst[n] = -7
					if bulk {
						f64.Load(dst, op.lo, op.hi)
					} else {
						for i := range dst[:n] {
							dst[i] = f64.At(op.lo + i)
						}
					}
					for _, v := range dst {
						tr = append(tr, math.Float64bits(v))
					}
				}
				twins := 0
				for _, pg := range p.pages {
					if pg.twin != nil {
						twins++
					}
				}
				tr = append(tr, uint64(p.Faults), uint64(twins), uint64(p.Now()))
			}
			p.Barrier(round)
		}
		out[p.ID()] = tr
	})
	return out
}

// TestLoadStoreMatchScalarProperty: a bulk Load or Store is the
// element-wise loop it replaces — same values, same faults in the same
// page order (so the same virtual time), same twins — over random ranges
// of zero elements to three pages through both views, on pages that are
// never-written, that alias the preloaded image before their first local
// write and own their bytes after it, that another processor wrote before
// the last barrier, and in the partial page that ends at brk.  Processors
// store only inside their own third of the array and load anywhere.
func TestLoadStoreMatchScalarProperty(t *testing.T) {
	// "serial" names the engine: the serial coroutine engine.
	t.Run("serial", func(t *testing.T) {
		const (
			nprocs = 3
			words  = 6*512 + 200
			rounds = 4
		)
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			script := make([][][]bulkOp, rounds)
			for round := range script {
				script[round] = make([][]bulkOp, nprocs)
				for id := range script[round] {
					// Every processor first reads the whole array, ending at
					// brk: image pages, then nil pages in round 0, pages
					// invalidated at the barrier afterwards.
					ops := []bulkOp{{lo: 0, hi: words}, {i32: true, lo: 2 * words, hi: 2 * words}}
					for k := rng.Intn(6); k > 0; k-- {
						op := bulkOp{store: rng.Intn(2) == 0, i32: rng.Intn(3) == 0, seed: rng.Int63()}
						from, to := 0, words
						if op.store {
							from, to = id*words/nprocs, (id+1)*words/nprocs
						}
						if op.i32 {
							from, to = 2*from, 2*to
						}
						op.lo = from + rng.Intn(to-from+1)
						op.hi = min(to, op.lo+rng.Intn(3*4096/8))
						switch rng.Intn(6) {
						case 0:
							op.hi = op.lo // empty, possibly at the very end
						case 1:
							op.hi = to // ends with the region; for a load, at brk
						}
						ops = append(ops, op)
					}
					script[round][id] = ops
				}
			}
			want := runBulkScript(t, false, words, script)
			got := runBulkScript(t, true, words, script)
			for id := range want {
				if !slices.Equal(got[id], want[id]) {
					t.Fatalf("seed %d proc %d: bulk trace (%d entries) differs from the element-wise one (%d entries)",
						seed, id, len(got[id]), len(want[id]))
				}
			}
		}
	})
}

// TestBulkBoundsTable pins which bulk accesses panic and with what: an
// empty Load, like an empty Store, is a no-op wherever in [0,Len] it sits
// and touches no page; everything else out of bounds keeps its message.
func TestBulkBoundsTable(t *testing.T) {
	const n = 600 // float64s: a page and a bit, ending at brk
	eng, sys := world(2)
	a := sys.MallocPageAligned(8 * n)
	brk := int(a) + 8*n
	cases := []struct {
		name string
		do   func(p *Proc)
		want string // panic message; "" for none
	}{
		{"f64 empty load at end", func(p *Proc) { p.F64Array(a, n).Load(nil, n, n) }, ""},
		{"f64 empty load at start", func(p *Proc) { p.F64Array(a, n).Load(nil, 0, 0) }, ""},
		{"f64 empty load inside", func(p *Proc) { p.F64Array(a, n).Load(nil, 300, 300) }, ""},
		{"f64 empty store", func(p *Proc) { p.F64Array(a, n).Store(nil, n) }, ""},
		{"i32 empty load at end", func(p *Proc) { p.I32Array(a, 2*n).Load(nil, 2*n, 2*n) }, ""},
		{"i32 empty store", func(p *Proc) { p.I32Array(a, 2*n).Store(nil, 2*n) }, ""},
		{"f64 empty load past end", func(p *Proc) { p.F64Array(a, n).Load(nil, n+1, n+1) },
			fmt.Sprintf("tmk: index %d out of range [0,%d)", n+1, n)},
		{"f64 load lo negative", func(p *Proc) { p.F64Array(a, n).Load(make([]float64, 4), -1, 3) },
			fmt.Sprintf("tmk: index -1 out of range [0,%d)", n)},
		{"f64 load lo at end", func(p *Proc) { p.F64Array(a, n).Load(make([]float64, 4), n, n+1) },
			fmt.Sprintf("tmk: index %d out of range [0,%d)", n, n)},
		{"f64 load hi < lo", func(p *Proc) { p.F64Array(a, n).Load(make([]float64, 4), 5, 4) }, "tmk: bad Load range"},
		{"f64 load hi past end", func(p *Proc) { p.F64Array(a, n).Load(make([]float64, 4), n-2, n+1) }, "tmk: bad Load range"},
		{"f64 load short dst", func(p *Proc) { p.F64Array(a, n).Load(make([]float64, 3), 0, 4) }, "tmk: Load dst too short"},
		{"f64 load out of space", func(p *Proc) { p.F64Array(a, n+100).Load(make([]float64, 4), n-2, n+2) },
			fmt.Sprintf("tmk: range [%d,%d) outside shared space", brk-16, brk+16)},
		{"f64 store lo out of range", func(p *Proc) { p.F64Array(a, n).Store(make([]float64, 1), n) },
			fmt.Sprintf("tmk: index %d out of range [0,%d)", n, n)},
		{"f64 store runs past end", func(p *Proc) { p.F64Array(a, n).Store(make([]float64, 3), n-2) },
			fmt.Sprintf("tmk: index %d out of range [0,%d)", n, n)},
		{"f64 store out of space", func(p *Proc) { p.F64Array(a, n+100).Store(make([]float64, 4), n-2) },
			fmt.Sprintf("tmk: range [%d,%d) outside shared space", brk-16, brk+16)},
		{"f64 misaligned base", func(p *Proc) { p.F64Array(a+4, 1) },
			fmt.Sprintf("tmk: misaligned 8-byte access at %d", a+4)},
		{"i32 load lo at end", func(p *Proc) { p.I32Array(a, 2*n).Load(make([]int32, 4), 2*n, 2*n+1) },
			fmt.Sprintf("tmk: index %d out of range [0,%d)", 2*n, 2*n)},
		{"i32 load hi < lo", func(p *Proc) { p.I32Array(a, 2*n).Load(make([]int32, 4), 5, 4) }, "tmk: bad Load range"},
		{"i32 load short dst", func(p *Proc) { p.I32Array(a, 2*n).Load(make([]int32, 3), 0, 4) }, "tmk: Load dst too short"},
		{"i32 load out of space", func(p *Proc) { p.I32Array(a, 2*n+100).Load(make([]int32, 8), 2*n-4, 2*n+4) },
			fmt.Sprintf("tmk: range [%d,%d) outside shared space", brk-16, brk+16)},
		{"i32 store out of space", func(p *Proc) { p.I32Array(a, 2*n+100).Store(make([]int32, 8), 2*n-4) },
			fmt.Sprintf("tmk: range [%d,%d) outside shared space", brk-16, brk+16)},
		{"i32 misaligned base", func(p *Proc) { p.I32Array(a+2, 1) },
			fmt.Sprintf("tmk: misaligned 4-byte access at %d", a+2)},
	}
	runAll(t, eng, sys, func(p *Proc) {
		if p.ID() == 0 {
			p.F64Array(a, n).Set(n-1, 1) // invalidates proc 1's last page at the barrier
		}
		p.Barrier(0)
		if p.ID() == 0 {
			return
		}
		for _, c := range cases {
			func() {
				defer func() {
					got := ""
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
					if got != c.want {
						t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
					}
				}()
				c.do(p)
			}()
		}
		if p.Faults != 0 {
			t.Errorf("empty and refused bulk accesses took %d faults, want 0", p.Faults)
		}
	})
}
