package tsp

import "repro/internal/tmk"

// Shared-memory capacity: the tour pool holds this many records; when the
// pool is exhausted, get_tour hands the current partial path to the solver
// instead of extending it (bounded memory, same optimum).  Sized so the
// best-first frontier of the paper-scale instance fits without overflow.
const maxPool = 32768

const (
	lockQueue = 0
	lockBest  = 1
)

// tmkLayout is the shared-memory layout of the TreadMarks version.
// The four major structures sit on distinct pages, so a get_tour takes at
// least three page faults when the structures last migrated elsewhere.
type tmkLayout struct {
	head  tmk.Addr // qsize, stackTop (int32 x2)
	best  tmk.Addr // current shortest tour length (int32)
	queue tmk.Addr // binary heap of int64 (bound<<20 | pool index)
	stack tmk.Addr // free pool slots (int32)
	pool  tmk.Addr // tour records: [len, length, cities...] int32
}

func (c Config) recInts() int { return 2 + c.Cities }

func layoutTMK(sys *tmk.System, cfg Config) tmkLayout {
	var l tmkLayout
	l.head = sys.MallocPageAligned(8)
	l.best = sys.MallocPageAligned(4)
	l.queue = sys.MallocPageAligned(8 * maxPool)
	l.stack = sys.MallocPageAligned(4 * maxPool)
	l.pool = sys.MallocPageAligned(4 * maxPool * cfg.recInts())
	// Initial state: all slots free, queue holds the root tour {0}.
	// Slot 0 holds the root tour; slots 1..maxPool-1 are free, stacked so
	// that allocSlot hands out slot 1 first.
	stack := make([]int32, maxPool)
	for i := 0; i < maxPool-1; i++ {
		stack[i] = int32(maxPool - 1 - i)
	}
	sys.InitI32(l.stack, stack)
	sys.InitI32(l.head, []int32{1, int32(maxPool - 2)}) // qsize=1, stack top index
	root := make([]int32, cfg.recInts())
	root[0] = 1 // len
	root[1] = 0 // length
	root[2] = 0 // city 0
	sys.InitI32(l.pool, root)
	sys.InitI64(l.queue, []int64{0<<20 /* bound 0 */ | 0 /* slot 0 */})
	// The search starts from the greedy tour bound, as in the sequential
	// and PVM versions.
	sys.InitI32(l.best, []int32{newSolver(cfg).greedy()})
	return l
}

// tmkWorker wraps shared-heap operations for one processor.
type tmkWorker struct {
	p   *tmk.Proc
	cfg Config
	s   *solver
	l   tmkLayout
	q   tmk.I64Array
	st  tmk.I32Array
	pl  tmk.I32Array
}

func (w *tmkWorker) qsize() int32     { return w.p.ReadI32(w.l.head) }
func (w *tmkWorker) setQsize(v int32) { w.p.WriteI32(w.l.head, v) }
func (w *tmkWorker) stackTop() int32  { return w.p.ReadI32(w.l.head + 4) }
func (w *tmkWorker) setTop(v int32)   { w.p.WriteI32(w.l.head+4, v) }

// heapPush inserts (bound, slot) into the shared priority queue.
func (w *tmkWorker) heapPush(bound int32, slot int32) {
	n := w.qsize()
	v := int64(bound)<<20 | int64(slot)
	w.q.Set(int(n), v)
	i := int(n)
	for i > 0 {
		p := (i - 1) / 2
		pv := w.q.At(p)
		if pv>>20 <= v>>20 {
			break
		}
		w.q.Set(i, pv)
		w.q.Set(p, v)
		i = p
	}
	w.setQsize(n + 1)
	w.p.Compute(w.cfg.QueueCost)
}

// heapPop removes the most promising entry.
func (w *tmkWorker) heapPop() (int32, int32) {
	n := int(w.qsize())
	top := w.q.At(0)
	last := w.q.At(n - 1)
	w.setQsize(int32(n - 1))
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		mv := last
		if l < n {
			if lv := w.q.At(l); lv>>20 < mv>>20 {
				m, mv = l, lv
			}
		}
		if r < n {
			if rv := w.q.At(r); rv>>20 < mv>>20 {
				m, mv = r, rv
			}
		}
		if m == i {
			break
		}
		w.q.Set(i, mv)
		i = m
	}
	if n > 0 {
		w.q.Set(i, last)
	}
	w.p.Compute(w.cfg.QueueCost)
	return int32(top >> 20), int32(top & 0xFFFFF)
}

// allocSlot pops a free pool slot, or -1 if the pool is exhausted.
func (w *tmkWorker) allocSlot() int32 {
	t := w.stackTop()
	if t < 0 {
		return -1
	}
	slot := w.st.At(int(t))
	w.setTop(t - 1)
	return slot
}

func (w *tmkWorker) freeSlot(slot int32) {
	t := w.stackTop() + 1
	w.st.Set(int(t), slot)
	w.setTop(t)
}

// readTour copies a pool record into local memory.
func (w *tmkWorker) readTour(slot int32) (path []int32, length int32) {
	base := int(slot) * w.cfg.recInts()
	n := int(w.pl.At(base))
	length = w.pl.At(base + 1)
	path = make([]int32, n)
	for i := 0; i < n; i++ {
		path[i] = w.pl.At(base + 2 + i)
	}
	return path, length
}

func (w *tmkWorker) writeTour(slot int32, path []int32, length int32) {
	base := int(slot) * w.cfg.recInts()
	w.pl.Set(base, int32(len(path)))
	w.pl.Set(base+1, length)
	for i, c := range path {
		w.pl.Set(base+2+i, c)
	}
}

// getTour implements the paper's get_tour under the queue lock: it
// returns a solvable path, or nil when the queue is empty.
func (w *tmkWorker) getTour() ([]int32, int32) {
	w.p.LockAcquire(lockQueue)
	defer w.p.LockRelease(lockQueue)
	for {
		if w.qsize() == 0 {
			return nil, 0
		}
		bound, slot := w.heapPop()
		path, length := w.readTour(slot)
		w.freeSlot(slot)
		best := w.p.ReadI32(w.l.best)
		if bound >= best {
			continue // pruned: a better tour appeared since insertion
		}
		if len(path) >= w.cfg.returnLen() {
			return path, length
		}
		// Extend by one city; push the promising children.
		visited := uint32(0)
		for _, c := range path {
			visited |= 1 << uint(c)
		}
		lastC := path[len(path)-1]
		overflow := false
		for c := int32(0); c < int32(w.cfg.Cities); c++ {
			if visited&(1<<uint(c)) != 0 {
				continue
			}
			nl := length + w.s.d[lastC][c]
			np := append(append([]int32(nil), path...), c)
			nb := w.s.lowerBound(np, nl)
			w.p.Compute(w.cfg.BoundCost)
			if nb >= best {
				continue
			}
			ns := w.allocSlot()
			if ns < 0 {
				overflow = true
				break
			}
			w.writeTour(ns, np, nl)
			w.heapPush(nb, ns)
		}
		if overflow {
			// Pool exhausted: solve this partial path directly.
			return path, length
		}
	}
}

// PVM message tags.
const (
	tagWorkReq = 1
	tagWork    = 2 // tour assignment (or empty = done)
	tagUpdate  = 3
)
