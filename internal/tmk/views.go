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

// cacheRead remembers a page just vetted by readable for scalar reads.
// Pages with nil data (all-zero, never written) are not cached: their
// reads return 0 through the slow path.
func (p *Proc) cacheRead(pid int, pg *page) {
	if pg.data == nil {
		return
	}
	p.rc = p.window(pid, pg)
}

// cacheWrite remembers a page just vetted by writable.  A writable page is
// also readable, so the read cache is filled too.
func (p *Proc) cacheWrite(pid int, pg *page) {
	p.wc = p.window(pid, pg)
	p.rc = p.wc
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

// ReadF64 reads a shared float64.
func (p *Proc) ReadF64(a Addr) float64 {
	if c := &p.rc; a >= c.lo && a+8 <= c.hi && a&7 == 0 {
		return getF64(c.data[a-c.lo:])
	}
	return p.readF64Slow(a)
}

func (p *Proc) readF64Slow(a Addr) float64 {
	pid, off := p.loc(a, 8)
	pg := p.readable(pid)
	if pg.data == nil {
		return 0
	}
	p.cacheRead(pid, pg)
	return getF64(pg.data[off:])
}

// WriteF64 writes a shared float64.
func (p *Proc) WriteF64(a Addr, v float64) {
	if c := &p.wc; a >= c.lo && a+8 <= c.hi && a&7 == 0 {
		putF64(c.data[a-c.lo:], v)
		return
	}
	p.writeF64Slow(a, v)
}

func (p *Proc) writeF64Slow(a Addr, v float64) {
	pid, off := p.loc(a, 8)
	pg := p.writable(pid)
	p.cacheWrite(pid, pg)
	putF64(pg.data[off:], v)
}

// ReadI32 reads a shared int32.
func (p *Proc) ReadI32(a Addr) int32 {
	if c := &p.rc; a >= c.lo && a+4 <= c.hi && a&3 == 0 {
		return int32(getU32(c.data[a-c.lo:]))
	}
	return p.readI32Slow(a)
}

func (p *Proc) readI32Slow(a Addr) int32 {
	pid, off := p.loc(a, 4)
	pg := p.readable(pid)
	if pg.data == nil {
		return 0
	}
	p.cacheRead(pid, pg)
	return int32(getU32(pg.data[off:]))
}

// WriteI32 writes a shared int32.
func (p *Proc) WriteI32(a Addr, v int32) {
	if c := &p.wc; a >= c.lo && a+4 <= c.hi && a&3 == 0 {
		putU32(c.data[a-c.lo:], uint32(v))
		return
	}
	p.writeI32Slow(a, v)
}

func (p *Proc) writeI32Slow(a Addr, v int32) {
	pid, off := p.loc(a, 4)
	pg := p.writable(pid)
	p.cacheWrite(pid, pg)
	putU32(pg.data[off:], uint32(v))
}

// ReadI64 reads a shared int64.
func (p *Proc) ReadI64(a Addr) int64 {
	if c := &p.rc; a >= c.lo && a+8 <= c.hi && a&7 == 0 {
		return int64(getU64(c.data[a-c.lo:]))
	}
	return p.readI64Slow(a)
}

func (p *Proc) readI64Slow(a Addr) int64 {
	pid, off := p.loc(a, 8)
	pg := p.readable(pid)
	if pg.data == nil {
		return 0
	}
	p.cacheRead(pid, pg)
	return int64(getU64(pg.data[off:]))
}

// WriteI64 writes a shared int64.
func (p *Proc) WriteI64(a Addr, v int64) {
	if c := &p.wc; a >= c.lo && a+8 <= c.hi && a&7 == 0 {
		putU64(c.data[a-c.lo:], uint64(v))
		return
	}
	p.writeI64Slow(a, v)
}

func (p *Proc) writeI64Slow(a Addr, v int64) {
	pid, off := p.loc(a, 8)
	pg := p.writable(pid)
	p.cacheWrite(pid, pg)
	putU64(pg.data[off:], uint64(v))
}

// bulk validates a bulk access to bytes [a, a+n) and returns where it
// starts — page id and in-page offset — and the page size.  Bulk accesses
// then walk page by page: one access check each, in address order.
func (p *Proc) bulk(a Addr, n int) (pid, off, ps int) {
	if a < 0 || int(a)+n > int(p.sys.brk) {
		panic(fmt.Sprintf("tmk: range [%d,%d) outside shared space", a, int(a)+n))
	}
	ps = p.sys.cfg.PageSize
	return int(a) / ps, int(a) % ps, ps
}

// checkIndex panics unless i indexes an n-element view.
func checkIndex(i, n int) {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tmk: index %d out of range [0,%d)", i, n))
	}
}

// F64Array is a typed window onto shared memory.
type F64Array struct {
	p    *Proc
	base Addr
	n    int
}

// F64Array views n float64 values starting at base.
func (p *Proc) F64Array(base Addr, n int) F64Array {
	p.loc(base, 8) // validate base alignment and start bound
	return F64Array{p: p, base: base, n: n}
}

// At reads element i.
func (a F64Array) At(i int) float64 {
	checkIndex(i, a.n)
	return a.p.ReadF64(a.base + Addr(8*i))
}

// Set writes element i.
func (a F64Array) Set(i int, v float64) {
	checkIndex(i, a.n)
	a.p.WriteF64(a.base+Addr(8*i), v)
}

// Load copies elements [lo,hi) into dst (bulk read: one access check per
// page rather than per element).  An empty range touches no page.
func (a F64Array) Load(dst []float64, lo, hi int) {
	if lo == hi && 0 <= lo && lo <= a.n {
		return
	}
	checkIndex(lo, a.n)
	if hi < lo || hi > a.n {
		panic("tmk: bad Load range")
	}
	if len(dst) < hi-lo {
		panic("tmk: Load dst too short")
	}
	dst = dst[:hi-lo]
	pid, off, ps := a.p.bulk(a.base+Addr(8*lo), 8*len(dst))
	for ; len(dst) > 0; pid, off = pid+1, 0 {
		d := dst[:min(len(dst), (ps-off)/8)]
		if data := a.p.readable(pid).data; data == nil {
			clear(d)
		} else {
			decF64(d, data[off:])
		}
		dst = dst[len(d):]
	}
}

// Store copies src into elements starting at lo (bulk write).
func (a F64Array) Store(src []float64, lo int) {
	if len(src) == 0 {
		return
	}
	checkIndex(lo, a.n)
	checkIndex(lo+len(src)-1, a.n)
	pid, off, ps := a.p.bulk(a.base+Addr(8*lo), 8*len(src))
	for ; len(src) > 0; pid, off = pid+1, 0 {
		s := src[:min(len(src), (ps-off)/8)]
		encF64(a.p.writable(pid).data[off:], s)
		src = src[len(s):]
	}
}

// I32Array is a typed int32 window onto shared memory.
type I32Array struct {
	p    *Proc
	base Addr
	n    int
}

// I32Array views n int32 values starting at base.
func (p *Proc) I32Array(base Addr, n int) I32Array {
	p.loc(base, 4)
	return I32Array{p: p, base: base, n: n}
}

// At reads element i.
func (a I32Array) At(i int) int32 {
	checkIndex(i, a.n)
	return a.p.ReadI32(a.base + Addr(4*i))
}

// Set writes element i.
func (a I32Array) Set(i int, v int32) {
	checkIndex(i, a.n)
	a.p.WriteI32(a.base+Addr(4*i), v)
}

// Load copies elements [lo,hi) into dst.  An empty range touches no page.
func (a I32Array) Load(dst []int32, lo, hi int) {
	if lo == hi && 0 <= lo && lo <= a.n {
		return
	}
	checkIndex(lo, a.n)
	if hi < lo || hi > a.n {
		panic("tmk: bad Load range")
	}
	if len(dst) < hi-lo {
		panic("tmk: Load dst too short")
	}
	dst = dst[:hi-lo]
	pid, off, ps := a.p.bulk(a.base+Addr(4*lo), 4*len(dst))
	for ; len(dst) > 0; pid, off = pid+1, 0 {
		d := dst[:min(len(dst), (ps-off)/4)]
		if data := a.p.readable(pid).data; data == nil {
			clear(d)
		} else {
			decI32(d, data[off:])
		}
		dst = dst[len(d):]
	}
}

// Store copies src into elements starting at lo.
func (a I32Array) Store(src []int32, lo int) {
	if len(src) == 0 {
		return
	}
	checkIndex(lo, a.n)
	checkIndex(lo+len(src)-1, a.n)
	pid, off, ps := a.p.bulk(a.base+Addr(4*lo), 4*len(src))
	for ; len(src) > 0; pid, off = pid+1, 0 {
		s := src[:min(len(src), (ps-off)/4)]
		encI32(a.p.writable(pid).data[off:], s)
		src = src[len(s):]
	}
}

// I64Array is a typed int64 window onto shared memory.
type I64Array struct {
	p    *Proc
	base Addr
	n    int
}

// I64Array views n int64 values starting at base.
func (p *Proc) I64Array(base Addr, n int) I64Array {
	p.loc(base, 8)
	return I64Array{p: p, base: base, n: n}
}

// At reads element i.
func (a I64Array) At(i int) int64 {
	checkIndex(i, a.n)
	return a.p.ReadI64(a.base + Addr(8*i))
}

// Set writes element i.
func (a I64Array) Set(i int, v int64) {
	checkIndex(i, a.n)
	a.p.WriteI64(a.base+Addr(8*i), v)
}
