package tmk

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements the access layer of the DSM: every read or write of
// shared memory goes through a software access check that stands in for
// the virtual-memory protection hardware of the original system.  An
// access to an invalidated page triggers the fault handler (the indexed
// diff fetch/apply path in fault.go); the first write to a page in an
// interval creates a twin.  Valid-page accesses charge no virtual time:
// the real system's post-fault accesses are ordinary loads and stores.
//
// Each check is written once, whatever the element type.  A scalar
// Read*/Write* that misses its cached page window takes the one slow path
// of its direction, readAt or writeAt.  A bulk Load or Store (load, store)
// and a preload (System.InitF64 and its siblings, through preload) share
// one page walk, pageWalk, and differ only in the per-page check and the
// four-wide codec they pass it.  A hook on every shared access (a race
// detector, say) therefore goes in readAt, writeAt, load and store.

func putU32(b []byte, v uint32)  { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64)  { binary.LittleEndian.PutUint64(b, v) }
func putF64(b []byte, v float64) { putU64(b, math.Float64bits(v)) }
func getU32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func getF64(b []byte) float64    { return math.Float64frombits(getU64(b)) }

// The bulk codecs move a run of elements between a typed slice and its
// little-endian bytes, four elements per pass: each pass reslices the
// bytes to a constant length once, so the four conversions need no bounds
// check of their own, and a short loop takes the tail.  The byte slice
// must hold every element.  The element loop this replaced paid a
// bounds check and a reslice per element: on a row of SOR (768 float64s,
// BenchmarkLoadStore, 2 vCPUs) a Load went from 0.9-1.3 µs to 0.5-0.7
// µs, and a Store from 1.1-1.4 µs to 0.5-0.6 µs.

func decF64(dst []float64, src []byte) {
	for len(dst) >= 4 {
		s, d := src[:32:32], dst[:4:4]
		d[0], d[1], d[2], d[3] = getF64(s), getF64(s[8:]), getF64(s[16:]), getF64(s[24:])
		dst, src = dst[4:], src[32:]
	}
	for i := range dst {
		dst[i] = getF64(src[8*i:])
	}
}

func encF64(dst []byte, src []float64) {
	for len(src) >= 4 {
		d, s := dst[:32:32], src[:4:4]
		putF64(d, s[0])
		putF64(d[8:], s[1])
		putF64(d[16:], s[2])
		putF64(d[24:], s[3])
		dst, src = dst[32:], src[4:]
	}
	for i, v := range src {
		putF64(dst[8*i:], v)
	}
}

func decI32(dst []int32, src []byte) {
	for len(dst) >= 4 {
		s, d := src[:16:16], dst[:4:4]
		d[0], d[1] = int32(getU32(s)), int32(getU32(s[4:]))
		d[2], d[3] = int32(getU32(s[8:])), int32(getU32(s[12:]))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = int32(getU32(src[4*i:]))
	}
}

func encI32(dst []byte, src []int32) {
	for len(src) >= 4 {
		d, s := dst[:16:16], src[:4:4]
		putU32(d, uint32(s[0]))
		putU32(d[4:], uint32(s[1]))
		putU32(d[8:], uint32(s[2]))
		putU32(d[12:], uint32(s[3]))
		dst, src = dst[16:], src[4:]
	}
	for i, v := range src {
		putU32(dst[4*i:], uint32(v))
	}
}

// encI64 is the int64 encoder.  No int64 view has a bulk Load or Store,
// so it has no decoder; System.InitI64 is its caller.
func encI64(dst []byte, src []int64) {
	for len(src) >= 4 {
		d, s := dst[:32:32], src[:4:4]
		putU64(d, uint64(s[0]))
		putU64(d[8:], uint64(s[1]))
		putU64(d[16:], uint64(s[2]))
		putU64(d[24:], uint64(s[3]))
		dst, src = dst[32:], src[4:]
	}
	for i, v := range src {
		putU64(dst[8*i:], uint64(v))
	}
}

// loc validates an access of size bytes at address a and returns the page
// id and in-page offset.  Allocations are 8-byte aligned and the page size
// is a multiple of 8, so naturally aligned scalars never straddle pages.
func (p *Proc) loc(a Addr, size int) (int, int) {
	if a < 0 || int(a)+size > int(p.sys.brk) {
		panic(fmt.Sprintf("tmk: access of %d bytes at %d outside shared space [0,%d)", size, a, p.sys.brk))
	}
	if int(a)%size != 0 {
		panic(fmt.Sprintf("tmk: misaligned %d-byte access at %d", size, a))
	}
	ps := p.sys.cfg.PageSize
	return int(a) / ps, int(a) % ps
}

// accCache is the scalar-access fast path: the address window [lo,hi) of
// the last page hit, plus its backing bytes.  A hit needs two compares and
// a subtraction — no page-table lookup, no division, no fault check.  The
// zero value matches no address.  Cached windows never cross p.sys.brk,
// so the fast path preserves loc's bounds check.
type accCache struct {
	lo, hi Addr
	data   []byte
}

func (p *Proc) window(pid int, pg *page) accCache {
	ps := p.sys.cfg.PageSize
	lo := Addr(pid * ps)
	hi := lo + Addr(ps)
	if hi > p.sys.brk {
		hi = p.sys.brk
	}
	return accCache{lo: lo, hi: hi, data: pg.data}
}

// readAt is every scalar read's slow path: it vets a read of size bytes at
// a, faults the page in if it is invalid, refills the read cache and
// returns the page's bytes from a on.  A never-written page (nil data)
// reads as p.zero and is not cached, so its reads keep coming here.
func (p *Proc) readAt(a Addr, size int) []byte {
	pid, off := p.loc(a, size)
	pg := p.readable(pid)
	if pg.data == nil {
		return p.zero[:]
	}
	p.rc = p.window(pid, pg)
	return pg.data[off:]
}

// writeAt is every scalar write's slow path: it vets a write of size bytes
// at a, faults and twins the page as needed and returns the page's bytes
// from a on.  A writable page is also readable, so both caches are
// refilled.
func (p *Proc) writeAt(a Addr, size int) []byte {
	pid, off := p.loc(a, size)
	pg := p.writable(pid)
	p.wc = p.window(pid, pg)
	p.rc = p.wc
	return pg.data[off:]
}

// ReadF64 reads a shared float64.
func (p *Proc) ReadF64(a Addr) float64 {
	if c := &p.rc; a >= c.lo && a+8 <= c.hi && a&7 == 0 {
		return getF64(c.data[a-c.lo:])
	}
	return getF64(p.readAt(a, 8))
}

// WriteF64 writes a shared float64.
func (p *Proc) WriteF64(a Addr, v float64) {
	if c := &p.wc; a >= c.lo && a+8 <= c.hi && a&7 == 0 {
		putF64(c.data[a-c.lo:], v)
		return
	}
	putF64(p.writeAt(a, 8), v)
}

// ReadI32 reads a shared int32.
func (p *Proc) ReadI32(a Addr) int32 {
	if c := &p.rc; a >= c.lo && a+4 <= c.hi && a&3 == 0 {
		return int32(getU32(c.data[a-c.lo:]))
	}
	return int32(getU32(p.readAt(a, 4)))
}

// WriteI32 writes a shared int32.
func (p *Proc) WriteI32(a Addr, v int32) {
	if c := &p.wc; a >= c.lo && a+4 <= c.hi && a&3 == 0 {
		putU32(c.data[a-c.lo:], uint32(v))
		return
	}
	putU32(p.writeAt(a, 4), uint32(v))
}

// ReadI64 reads a shared int64.
func (p *Proc) ReadI64(a Addr) int64 {
	if c := &p.rc; a >= c.lo && a+8 <= c.hi && a&7 == 0 {
		return int64(getU64(c.data[a-c.lo:]))
	}
	return int64(getU64(p.readAt(a, 8)))
}

// WriteI64 writes a shared int64.
func (p *Proc) WriteI64(a Addr, v int64) {
	if c := &p.wc; a >= c.lo && a+8 <= c.hi && a&7 == 0 {
		putU64(c.data[a-c.lo:], uint64(v))
		return
	}
	putU64(p.writeAt(a, 8), uint64(v))
}

// pageWalk is the one page walk of bulk accesses and preloads: it hands f
// the elements of vals, w bytes each and the first at address a, one
// page's share at a time in address order, with the page id and the
// share's offset in the page.  An element starts at a multiple of w and
// pages are multiples of 8, so no element is split across two shares.
// An empty vals touches no page.
func pageWalk[T any](a Addr, w, ps int, vals []T, f func(pid, off int, share []T)) {
	for pid, off := int(a)/ps, int(a)%ps; len(vals) > 0; pid, off = pid+1, 0 {
		share := vals[:min(len(vals), (ps-off)/w)]
		f(pid, off, share)
		vals = vals[len(share):]
	}
}

// checkRange panics unless bytes [a, a+n) lie in shared space.
func (s *System) checkRange(a Addr, n int) {
	if a < 0 || int(a)+n > int(s.brk) {
		panic(fmt.Sprintf("tmk: range [%d,%d) outside shared space", a, int(a)+n))
	}
}

// checkIndex panics unless i indexes an n-element view.
func checkIndex(i, n int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tmk: index %d out of range [0,%d)", i, n))
	}
}

// view is what every typed array holds: n elements of shared memory
// starting at base, accessed by p.
type view struct {
	p    *Proc
	base Addr
	n    int
}

// newView validates base's alignment and start bound for elements of
// width w.
func (p *Proc) newView(base Addr, n, w int) view {
	p.loc(base, w)
	return view{p: p, base: base, n: n}
}

// addr returns the address of element i of width w.
func (v view) addr(i, w int) Addr {
	checkIndex(i, v.n)
	return v.base + Addr(w*i)
}

// load copies elements [lo,hi) of width w into dst, decoding each page's
// share with dec after one access check for the page.  A never-written
// page reads as zeros.  An empty range touches no page.
func load[T any](v view, w int, dst []T, lo, hi int, dec func([]T, []byte)) {
	if lo == hi && 0 <= lo && lo <= v.n {
		return
	}
	checkIndex(lo, v.n)
	if hi < lo || hi > v.n {
		panic("tmk: bad Load range")
	}
	if len(dst) < hi-lo {
		panic("tmk: Load dst too short")
	}
	a := v.base + Addr(w*lo)
	v.p.sys.checkRange(a, w*(hi-lo))
	pageWalk(a, w, v.p.sys.cfg.PageSize, dst[:hi-lo], func(pid, off int, d []T) {
		if data := v.p.readable(pid).data; data == nil {
			clear(d)
		} else {
			dec(d, data[off:])
		}
	})
}

// store copies src into elements of width w from lo on, encoding each
// page's share with enc after one access check for the page.
func store[T any](v view, w int, src []T, lo int, enc func([]byte, []T)) {
	if len(src) == 0 {
		return
	}
	checkIndex(lo, v.n)
	checkIndex(lo+len(src)-1, v.n)
	a := v.base + Addr(w*lo)
	v.p.sys.checkRange(a, w*len(src))
	pageWalk(a, w, v.p.sys.cfg.PageSize, src, func(pid, off int, s []T) {
		enc(v.p.writable(pid).data[off:], s)
	})
}

// F64Array is a typed window onto shared memory.
type F64Array struct{ view }

// F64Array views n float64 values starting at base.
func (p *Proc) F64Array(base Addr, n int) F64Array { return F64Array{p.newView(base, n, 8)} }

// At reads element i.
func (a F64Array) At(i int) float64 { return a.p.ReadF64(a.addr(i, 8)) }

// Set writes element i.
func (a F64Array) Set(i int, v float64) { a.p.WriteF64(a.addr(i, 8), v) }

// Load copies elements [lo,hi) into dst (bulk read: one access check per
// page rather than per element).  An empty range touches no page.
func (a F64Array) Load(dst []float64, lo, hi int) { load(a.view, 8, dst, lo, hi, decF64) }

// Store copies src into elements starting at lo (bulk write).
func (a F64Array) Store(src []float64, lo int) { store(a.view, 8, src, lo, encF64) }

// I32Array is a typed int32 window onto shared memory.
type I32Array struct{ view }

// I32Array views n int32 values starting at base.
func (p *Proc) I32Array(base Addr, n int) I32Array { return I32Array{p.newView(base, n, 4)} }

// At reads element i.
func (a I32Array) At(i int) int32 { return a.p.ReadI32(a.addr(i, 4)) }

// Set writes element i.
func (a I32Array) Set(i int, v int32) { a.p.WriteI32(a.addr(i, 4), v) }

// Load copies elements [lo,hi) into dst.  An empty range touches no page.
func (a I32Array) Load(dst []int32, lo, hi int) { load(a.view, 4, dst, lo, hi, decI32) }

// Store copies src into elements starting at lo.
func (a I32Array) Store(src []int32, lo int) { store(a.view, 4, src, lo, encI32) }

// I64Array is a typed int64 window onto shared memory.
type I64Array struct{ view }

// I64Array views n int64 values starting at base.
func (p *Proc) I64Array(base Addr, n int) I64Array { return I64Array{p.newView(base, n, 8)} }

// At reads element i.
func (a I64Array) At(i int) int64 { return a.p.ReadI64(a.addr(i, 8)) }

// Set writes element i.
func (a I64Array) Set(i int, v int64) { a.p.WriteI64(a.addr(i, 8), v) }
