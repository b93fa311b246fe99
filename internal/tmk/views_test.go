package tmk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/vnet"
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
				tr = append(tr, uint64(p.Faults), uint64(twins), uint64(p.app.Now()))
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

// TestBulkBoundsTable pins which bulk accesses and preloads panic and
// with what: an empty Load, like an empty Store, is a no-op wherever in
// [0,Len] it sits and touches no page; everything else out of bounds
// keeps its message, and a preload past the end of shared space gets the
// same message as an access there.
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
		// A preload runs before start, so it goes to a fresh system laid
		// out as this one.
		{"f64 preload out of space", func(*Proc) { _, s := world(2); s.InitF64(s.MallocPageAligned(8*n)+8*(n-2), make([]float64, 4)) },
			fmt.Sprintf("tmk: range [%d,%d) outside shared space", brk-16, brk+16)},
		{"i32 preload out of space", func(*Proc) { _, s := world(2); s.InitI32(s.MallocPageAligned(8*n)+8*n, make([]int32, 1)) },
			fmt.Sprintf("tmk: range [%d,%d) outside shared space", brk, brk+4)},
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

// bulkKind is one element type's bulk and element-wise access paths, for
// TestBulkMatchesElementwise.  Only put and init are set for a type whose
// view has no bulk Load or Store (int64: only InitI64 encodes in bulk).
type bulkKind[T float64 | int32 | int64] struct {
	width int
	put   func(b []byte, v T) // one element, the reference encoding
	init  func(s *System, a Addr, vals []T)
	at    func(p *Proc, a Addr, n, i int) T
	set   func(p *Proc, a Addr, n, i int, v T)
	load  func(p *Proc, a Addr, n int, dst []T, lo, hi int)
	store func(p *Proc, a Addr, n int, src []T, lo int)
}

// TestBulkMatchesElementwise holds the four-wide codecs to the
// one-element-at-a-time encoding: every length from 0 to two pages of
// elements, starting on either side of a page boundary (residues 0-3 of
// the four-element pass, so every tail length meets every page split),
// at page sizes 1024 and 4096, for all three element types.
//   - InitF64, InitI32 and InitI64 build the same preloaded image, page
//     for page, as encoding each element alone.
//   - Load from never-written (nil) pages reads zeros, as At does, and
//     stops at hi.
//   - Store then At, and Set then Load, read back what was written, and
//     neither touches an element outside its range.
func TestBulkMatchesElementwise(t *testing.T) {
	f64Kind := bulkKind[float64]{
		width: 8,
		put:   putF64,
		init:  (*System).InitF64,
		at:    func(p *Proc, a Addr, n, i int) float64 { return p.F64Array(a, n).At(i) },
		set:   func(p *Proc, a Addr, n, i int, v float64) { p.F64Array(a, n).Set(i, v) },
		load:  func(p *Proc, a Addr, n int, dst []float64, lo, hi int) { p.F64Array(a, n).Load(dst, lo, hi) },
		store: func(p *Proc, a Addr, n int, src []float64, lo int) { p.F64Array(a, n).Store(src, lo) },
	}
	i32Kind := bulkKind[int32]{
		width: 4,
		put:   func(b []byte, v int32) { putU32(b, uint32(v)) },
		init:  (*System).InitI32,
		at:    func(p *Proc, a Addr, n, i int) int32 { return p.I32Array(a, n).At(i) },
		set:   func(p *Proc, a Addr, n, i int, v int32) { p.I32Array(a, n).Set(i, v) },
		load:  func(p *Proc, a Addr, n int, dst []int32, lo, hi int) { p.I32Array(a, n).Load(dst, lo, hi) },
		store: func(p *Proc, a Addr, n int, src []int32, lo int) { p.I32Array(a, n).Store(src, lo) },
	}
	i64Kind := bulkKind[int64]{
		width: 8,
		put:   func(b []byte, v int64) { putU64(b, uint64(v)) },
		init:  (*System).InitI64,
	}
	for _, ps := range []int{1024, 4096} {
		t.Run(fmt.Sprintf("page-%d", ps), func(t *testing.T) {
			t.Run("f64", func(t *testing.T) {
				checkBulk(t, ps, f64Kind, func(k int) float64 { return float64(k) + 0.25 })
			})
			t.Run("i32", func(t *testing.T) {
				checkBulk(t, ps, i32Kind, func(k int) int32 { return int32(k)*-3 + 1 })
			})
			t.Run("i64", func(t *testing.T) {
				checkBulk(t, ps, i64Kind, func(k int) int64 { return int64(k)<<33 | int64(k) })
			})
		})
	}
}

func checkBulk[T float64 | int32 | int64](t *testing.T, ps int, kind bulkKind[T], val func(int) T) {
	w, e := kind.width, ps/kind.width // element width, elements per page
	// Every residue mod 4, on both sides of a page boundary.
	starts := []int{e - 2, e - 1, e, e + 1}
	nextVal := 1
	fresh := func(n int) []T {
		vals := make([]T, n)
		for i := range vals {
			vals[i] = val(nextVal)
			nextVal++
		}
		return vals
	}

	cfg := DefaultConfig()
	cfg.PageSize = ps
	// The preloaded image, against a page-by-page reference.  The system
	// never starts, so each case resets its image.
	sys := NewSystem(sim.NewEngine(), vnet.New(vnet.FDDI()), 1, cfg)
	base := sys.MallocPageAligned(4 * ps)
	want := make([]byte, 4*ps) // the four pages at base, one element at a time
	for _, s := range starts {
		for n := 0; n <= 2*e; n++ {
			vals := fresh(n)
			sys.initial = map[int][]byte{}
			kind.init(sys, base+Addr(w*s), vals)
			clear(want)
			for i, v := range vals {
				kind.put(want[w*(s+i):], v)
			}
			first, last := w*s/ps, (w*(s+n)-1)/ps // the pages the range touches
			if n == 0 {
				first, last = 0, -1
			}
			if len(sys.initial) != last-first+1 {
				t.Fatalf("init of %d elements at %d: %d image pages, want %d", n, s, len(sys.initial), last-first+1)
			}
			for pg := first; pg <= last; pg++ {
				if !slices.Equal(sys.initial[int(base)/ps+pg], want[pg*ps:(pg+1)*ps]) {
					t.Fatalf("init of %d elements at %d: image page %d differs from one element at a time", n, s, pg)
				}
			}
		}
	}
	if kind.load == nil {
		return
	}

	eng := sim.NewEngine()
	sys = NewSystem(eng, vnet.New(vnet.FDDI()), 1, cfg)
	words := 4 * e // each region: four pages of elements
	nilA := sys.MallocPageAligned(4 * ps)
	rwA := sys.MallocPageAligned(4 * ps)
	runAll(t, eng, sys, func(p *Proc) {
		var sentinel T = val(0)
		mirror := make([]T, words) // rwA as written so far
		check := func(what string, s, n int) {
			for i := max(0, s-4); i < min(words, s+n+4); i++ {
				if got := kind.at(p, rwA, words, i); got != mirror[i] {
					t.Fatalf("%s of %d elements at %d: element %d reads %v, want %v", what, n, s, i, got, mirror[i])
				}
			}
		}
		for _, s := range starts {
			for n := 0; n <= 2*e; n++ {
				dst := append(make([]T, n), sentinel)
				for i := range dst[:n] {
					dst[i] = sentinel
				}
				kind.load(p, nilA, words, dst, s, s+n)
				for i, v := range dst[:n] {
					if want := kind.at(p, nilA, words, s+i); v != want {
						t.Fatalf("load of %d elements at %d from never-written pages: element %d is %v, want %v", n, s, i, v, want)
					}
				}
				if dst[n] != sentinel {
					t.Fatalf("load of %d elements at %d wrote past hi", n, s)
				}

				vals := fresh(n)
				kind.store(p, rwA, words, vals, s)
				copy(mirror[s:], vals)
				check("store", s, n)

				for i, v := range fresh(n) {
					kind.set(p, rwA, words, s+i, v)
					mirror[s+i] = v
				}
				dst[n] = sentinel
				kind.load(p, rwA, words, dst, s, s+n)
				if !slices.Equal(dst[:n], mirror[s:s+n]) || dst[n] != sentinel {
					t.Fatalf("load of %d elements at %d after element-wise sets differs from At", n, s)
				}
			}
		}
		if p.Faults != 0 {
			t.Errorf("a lone processor took %d faults", p.Faults)
		}
	})
}

// scalarKind is one element type's scalar accessors for checkScalar.
type scalarKind[T float64 | int32 | int64] struct {
	width int
	init  func(*System, Addr, []T)
	read  func(*Proc, Addr) T
	write func(*Proc, Addr, T)
}

// TestScalarMatchesMirror is the scalar path's differential check, the
// counterpart of TestBulkMatchesElementwise: for float64, int32 and int64,
// at page sizes 1024 and 4096, two processors take turns writing elements
// through Write* — on both sides of every page boundary, at the last
// element before brk and at random — reading each one back at once, and
// after every barrier both read every element through Read* against a
// mirror of what was written, in address order and then striding across
// pages so that every read misses the cached window.  The region's first half page is preloaded
// and the rest starts never-written, so the reads meet image pages, nil
// pages (which read zero and are never cached), pages a fault has just
// brought in and pages whose cached window a barrier dropped.
func TestScalarMatchesMirror(t *testing.T) {
	f64 := scalarKind[float64]{8, (*System).InitF64, (*Proc).ReadF64, (*Proc).WriteF64}
	i32 := scalarKind[int32]{4, (*System).InitI32, (*Proc).ReadI32, (*Proc).WriteI32}
	i64 := scalarKind[int64]{8, (*System).InitI64, (*Proc).ReadI64, (*Proc).WriteI64}
	for _, ps := range []int{1024, 4096} {
		t.Run(fmt.Sprintf("page-%d", ps), func(t *testing.T) {
			t.Run("f64", func(t *testing.T) {
				checkScalar(t, ps, f64, func(k int) float64 { return float64(k) + 0.25 })
			})
			t.Run("i32", func(t *testing.T) {
				checkScalar(t, ps, i32, func(k int) int32 { return int32(k)*-3 + 1 })
			})
			t.Run("i64", func(t *testing.T) {
				checkScalar(t, ps, i64, func(k int) int64 { return int64(k)<<33 | int64(k) })
			})
		})
	}
}

func checkScalar[T float64 | int32 | int64](t *testing.T, ps int, kind scalarKind[T], val func(int) T) {
	const rounds = 4
	w, e := kind.width, ps/kind.width // element width, elements per page
	words := 4*e - 2                  // the last page partial; w*words is a multiple of 8, so it ends at brk
	cfg := DefaultConfig()
	cfg.PageSize = ps
	eng := sim.NewEngine()
	sys := NewSystem(eng, vnet.New(vnet.FDDI()), 2, cfg)
	base := sys.MallocPageAligned(w * words)
	if int(sys.brk) != int(base)+w*words {
		t.Fatalf("brk %d, want the region's end %d", sys.brk, int(base)+w*words)
	}
	mirror := make([]T, words)
	for i := range e / 2 {
		mirror[i] = val(-1 - i)
	}
	kind.init(sys, base, mirror[:e/2])

	rng := rand.New(rand.NewSource(int64(ps + w)))
	script := make([][]int, rounds) // [round] the elements its writer writes, in order
	for r := range script {
		for pg := 1; pg < 4; pg++ {
			script[r] = append(script[r], pg*e-2, pg*e-1, pg*e, pg*e+1)
		}
		script[r] = append(script[r], words-1, 0)
		for range 40 {
			script[r] = append(script[r], rng.Intn(words))
		}
		rng.Shuffle(len(script[r]), func(i, j int) { script[r][i], script[r][j] = script[r][j], script[r][i] })
	}

	next := 1
	runAll(t, eng, sys, func(p *Proc) {
		check := func(when string, i int) {
			if got := kind.read(p, base+Addr(w*i)); got != mirror[i] {
				t.Fatalf("%s: proc %d reads element %d as %v, want %v", when, p.ID(), i, got, mirror[i])
			}
		}
		// checkAll reads every element twice: in address order, mostly
		// through the cached window, then page by page in turn, so that
		// each read misses the one-page cache and takes the slow path.
		checkAll := func(when string) {
			for i := range words {
				check(when, i)
			}
			for k := range e {
				for i := k; i < words; i += e {
					check(when, i)
				}
			}
		}
		checkAll("before any write")
		p.Barrier(2 * rounds)
		for r, idx := range script {
			if p.ID() == r%2 {
				for _, i := range idx {
					v := val(next)
					next++
					kind.write(p, base+Addr(w*i), v)
					mirror[i] = v
					if got := kind.read(p, base+Addr(w*i)); got != v {
						t.Fatalf("round %d: proc %d reads element %d back as %v right after writing %v", r, p.ID(), i, got, v)
					}
				}
			}
			p.Barrier(2 * r)
			checkAll(fmt.Sprintf("after round %d", r))
			p.Barrier(2*r + 1)
		}
	})
}
