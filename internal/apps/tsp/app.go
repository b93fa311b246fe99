package tsp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app implements core.App.  TSP is a master/slave app under PVM: Master
// returns the body of the extra master process, which owns all tour
// structures privately, as in the paper.
type app struct {
	cfg Config

	// Per-run machinery, rebuilt by the Setup hooks.
	s    *solver
	l    tmkLayout
	best int32 // improvement collector (verification, outside accounting)

	seqOut Output
	hasSeq bool
	hasPar bool
}

// NewApp wraps a TSP instance as a registrable experiment.
func NewApp(cfg Config) core.App { return newApp(cfg) }

func newApp(cfg Config) *app { return &app{cfg: cfg} }

// Clone returns a fresh instance with the same configuration and no run
// state, so grid workers can run copies concurrently (core.Cloneable).
func (a *app) Clone() core.App { return newApp(a.cfg) }

// Apps returns this package's registry entry (Figure 6) at the given
// workload scale.  The branch-and-bound search does not shrink linearly;
// quick mode swaps in a smaller instance with the same structure.
func Apps(scale float64) []core.App {
	cfg := Paper()
	if scale < 1 {
		cfg.Cities = 12
		cfg.Threshold = 8
	}
	return []core.App{newApp(cfg)}
}

// BigApps returns the registry entry for the bigp scenario family: a
// lower recursion threshold than the paper input, so the task queue
// holds thousands of subtours and P=256 workers all find work.
func BigApps(scale float64) []core.App {
	cfg := Paper()
	cfg.Cities, cfg.Threshold = 12, 8
	if scale < 1 {
		cfg.Cities, cfg.Threshold = 11, 7
	}
	return []core.App{newApp(cfg)}
}

func (a *app) Name() string { return "TSP" }
func (a *app) Figure() int  { return 6 }

func (a *app) Problem() string {
	return fmt.Sprintf("%d cities, threshold %d", a.cfg.Cities, a.cfg.Threshold)
}

func (a *app) Check() error {
	if !a.hasSeq || !a.hasPar {
		return fmt.Errorf("tsp: Check needs a sequential and a parallel run")
	}
	return a.seqOut.Check(Output{Best: a.best})
}

func (a *app) SetupTMK(sys *tmk.System) {
	a.s = newSolver(a.cfg)
	a.best = a.s.greedy()
	a.hasPar = false
	a.l = layoutTMK(sys, a.cfg)
}

func (a *app) TMK(p *tmk.Proc) {
	cfg := a.cfg
	w := &tmkWorker{p: p, cfg: cfg, s: a.s, l: a.l,
		q:  p.I64Array(a.l.queue, maxPool),
		st: p.I32Array(a.l.stack, maxPool),
		pl: p.I32Array(a.l.pool, maxPool*cfg.recInts()),
	}
	for {
		path, length := w.getTour()
		if path == nil {
			break
		}
		localBest := p.ReadI32(a.l.best)
		found, nodes := a.s.recursiveSolve(path, length, localBest)
		p.Compute(sim.Time(nodes) * cfg.NodeCost)
		if found < localBest {
			// Update the shortest tour under its lock.
			p.LockAcquire(lockBest)
			if cur := p.ReadI32(a.l.best); found < cur {
				p.WriteI32(a.l.best, found)
				if found < a.best {
					a.best = found
				}
			}
			p.LockRelease(lockBest)
		}
	}
	p.Barrier(0)
	if p.ID() == 0 {
		a.hasPar = true
	}
}

func (a *app) SetupPVM(sys *pvm.System) {
	a.s = newSolver(a.cfg)
	a.best = a.s.greedy()
	a.hasPar = false
}

// PVM is the slave body: request solvable tours from the master, solve
// them, and report improved shortest tours.
func (a *app) PVM(p *pvm.Proc) {
	cfg := a.cfg
	master := p.N() // the extra process id
	for {
		b := p.InitSend()
		b.PackOneInt32(int32(p.ID()))
		p.Send(master, tagWorkReq)
		r := p.Recv(master, tagWork)
		ln := int(r.UnpackOneInt32())
		if ln == 0 {
			return // done
		}
		path := make([]int32, ln)
		r.UnpackInt32(path, ln, 1)
		length := r.UnpackOneInt32()
		best := r.UnpackOneInt32()
		found, nodes := a.s.recursiveSolve(path, length, best)
		p.Compute(sim.Time(nodes) * cfg.NodeCost)
		if found < best {
			b := p.InitSend()
			b.PackOneInt32(found)
			p.Send(master, tagUpdate)
		}
	}
}

func (a *app) Master() func(*pvm.Proc) { return a.master }

// master keeps all tour structures in private memory; slaves message it
// to request solvable tours and to report improved shortest tours.
func (a *app) master(p *pvm.Proc) {
	cfg := a.cfg
	s := a.s
	n := p.N()
	type item struct {
		bound  int32
		length int32
		path   []int32
	}
	var heap []item
	push := func(it item) {
		heap = append(heap, it)
		for i := len(heap) - 1; i > 0; {
			par := (i - 1) / 2
			if heap[par].bound <= heap[i].bound {
				break
			}
			heap[par], heap[i] = heap[i], heap[par]
			i = par
		}
		p.Compute(cfg.QueueCost)
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < last && heap[l].bound < heap[m].bound {
				m = l
			}
			if r < last && heap[r].bound < heap[m].bound {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		p.Compute(cfg.QueueCost)
		return top
	}
	best := s.greedy()
	push(item{0, 0, []int32{0}})
	// getTour: pop and extend until a solvable path emerges.
	getTour := func() (item, bool) {
		for len(heap) > 0 {
			it := pop()
			if it.bound >= best {
				continue
			}
			if len(it.path) >= cfg.returnLen() {
				return it, true
			}
			visited := uint32(0)
			for _, c := range it.path {
				visited |= 1 << uint(c)
			}
			lastC := it.path[len(it.path)-1]
			for c := int32(0); c < int32(cfg.Cities); c++ {
				if visited&(1<<uint(c)) != 0 {
					continue
				}
				nl := it.length + s.d[lastC][c]
				np := append(append([]int32(nil), it.path...), c)
				nb := s.lowerBound(np, nl)
				p.Compute(cfg.BoundCost)
				if nb < best {
					push(item{nb, nl, np})
				}
			}
		}
		return item{}, false
	}
	done := 0
	for done < n {
		r := p.Recv(-1, -1)
		switch r.Tag() {
		case tagUpdate:
			if v := r.UnpackOneInt32(); v < best {
				best = v
			}
		case tagWorkReq:
			slave := int(r.UnpackOneInt32())
			it, ok := getTour()
			b := p.InitSend()
			if !ok {
				b.PackOneInt32(0)
				done++
			} else {
				b.PackOneInt32(int32(len(it.path)))
				b.PackInt32(it.path, len(it.path), 1)
				b.PackOneInt32(it.length)
				b.PackOneInt32(best)
			}
			p.Send(slave, tagWork)
		}
	}
	a.best = best
	a.hasPar = true
}
