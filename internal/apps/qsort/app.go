package qsort

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// app implements core.App.  QSORT is a master/slave app under PVM: the
// master owns the list and work queue, slaves partition and bubble-sort
// shipped subarrays.
type app struct {
	cfg Config

	// Shared-memory layout of the current TreadMarks run.
	listA, headA, queueA tmk.Addr

	// sink collects sorted leaves out of band; the parallel output is
	// assembled from it on demand.
	sink *leafSink

	seqOut Output
	hasSeq bool
	hasPar bool
}

// NewApp wraps a QSORT configuration as a registrable experiment.
func NewApp(cfg Config) core.App { return newApp(cfg) }

func newApp(cfg Config) *app { return &app{cfg: cfg, sink: newSink()} }

// Clone returns a fresh instance with the same configuration and no run
// state, so grid workers can run copies concurrently (core.Cloneable).
func (a *app) Clone() core.App { return newApp(a.cfg) }

// Apps returns this package's registry entry (Figure 7) at the given
// workload scale.
func Apps(scale float64) []core.App {
	cfg := Paper()
	cfg.N = core.Scaled(cfg.N, scale, 1<<12)
	cfg.Threshold = core.Scaled(cfg.Threshold, scale, 64)
	return []core.App{newApp(cfg)}
}

// BigApps returns the registry entry for the bigp scenario family: a
// bubble threshold low enough that the task queue holds ~256 leaf
// sorts, so P=256 workers all find work.
func BigApps(scale float64) []core.App {
	cfg := Paper()
	cfg.N, cfg.Threshold = 128*1024, 512
	cfg.N = core.Scaled(cfg.N, scale, 1<<14)
	return []core.App{newApp(cfg)}
}

func (a *app) Name() string { return "QSORT" }
func (a *app) Figure() int  { return 7 }

func (a *app) Problem() string {
	return fmt.Sprintf("%dK integers, bubble %d", a.cfg.N/1024, a.cfg.Threshold)
}

func (a *app) Check() error {
	if !a.hasSeq || !a.hasPar {
		return fmt.Errorf("qsort: Check needs a sequential and a parallel run")
	}
	return a.seqOut.Check(a.sink.assemble(a.cfg.N))
}

// Seq sorts with an explicit stack of subarrays.
func (a *app) Seq(ctx *sim.Ctx) {
	cfg := a.cfg
	v := cfg.input()
	type rng struct{ lo, hi int }
	stack := []rng{{0, cfg.N}}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sub := v[r.lo:r.hi]
		if len(sub) <= cfg.Threshold {
			ops := bubble(sub)
			ctx.Compute(sim.Time(ops) * cfg.BubbleCost)
			continue
		}
		m := partition(sub)
		ctx.Compute(sim.Time(len(sub)) * cfg.PartCost)
		stack = append(stack, rng{r.lo, r.lo + m}, rng{r.lo + m, r.hi})
	}
	a.seqOut = checksum(v)
	a.hasSeq = true
}

func (a *app) SetupTMK(sys *tmk.System) {
	cfg := a.cfg
	a.sink = newSink()
	a.hasPar = true
	a.listA = sys.MallocPageAligned(4 * cfg.N)
	a.headA = sys.MallocPageAligned(8) // qcount, doneCount (int32 x2)
	a.queueA = sys.MallocPageAligned(8 * maxQueue)
	sys.InitI32(a.listA, cfg.input())
	sys.InitI32(a.headA, []int32{1, 0})
	sys.InitI64(a.queueA, []int64{int64(cfg.N)}) // (lo=0)<<32 | hi=N... lo in high half
}

// TMK: list and work queue shared, queue under a lock, termination via a
// shared done-count.
func (a *app) TMK(p *tmk.Proc) {
	cfg := a.cfg
	list := p.I32Array(a.listA, cfg.N)
	queue := p.I64Array(a.queueA, maxQueue)
	buf := make([]int32, cfg.N)
	for {
		p.LockAcquire(lockQueue)
		qc := p.ReadI32(a.headA)
		done := p.ReadI32(a.headA + 4)
		if qc == 0 {
			p.LockRelease(lockQueue)
			if int(done) == cfg.N {
				break
			}
			p.Compute(500 * sim.Microsecond) // idle backoff, then re-poll
			continue
		}
		ent := queue.At(int(qc) - 1)
		p.WriteI32(a.headA, qc-1)
		p.LockRelease(lockQueue)
		lo := int(ent >> 32)
		hi := int(ent & 0xFFFFFFFF)
		sub := buf[:hi-lo]
		list.Load(sub, lo, hi)
		if hi-lo <= cfg.Threshold {
			ops := bubble(sub)
			p.Compute(sim.Time(ops) * cfg.BubbleCost)
			list.Store(sub, lo)
			a.sink.add(lo, sub)
			p.LockAcquire(lockQueue)
			p.WriteI32(a.headA+4, p.ReadI32(a.headA+4)+int32(hi-lo))
			p.LockRelease(lockQueue)
			continue
		}
		m := partition(sub)
		p.Compute(sim.Time(hi-lo) * cfg.PartCost)
		list.Store(sub, lo)
		// Reacquire the queue to push the two new subarrays.
		p.LockAcquire(lockQueue)
		qc = p.ReadI32(a.headA)
		if int(qc)+2 > maxQueue {
			panic("qsort: work queue overflow")
		}
		queue.Set(int(qc), int64(lo)<<32|int64(lo+m))
		queue.Set(int(qc)+1, int64(lo+m)<<32|int64(hi))
		p.WriteI32(a.headA, qc+2)
		p.LockRelease(lockQueue)
	}
	p.Barrier(0)
}

func (a *app) SetupPVM(sys *pvm.System) {
	a.sink = newSink()
	a.hasPar = true
}

// PVM is the slave body of the master/slave version.
func (a *app) PVM(p *pvm.Proc) {
	cfg := a.cfg
	master := p.N()
	for {
		b := p.InitSend()
		b.PackOneInt32(int32(p.ID()))
		p.Send(master, tagWorkReq)
		r := p.Recv(master, tagWork)
		kind := r.UnpackOneInt32()
		if kind == 0 {
			return
		}
		lo := int(r.UnpackOneInt32())
		ln := int(r.UnpackOneInt32())
		sub := make([]int32, ln)
		r.UnpackInt32(sub, ln, 1)
		if ln <= cfg.Threshold {
			ops := bubble(sub)
			p.Compute(sim.Time(ops) * cfg.BubbleCost)
			b := p.InitSend()
			b.PackOneInt32(int32(lo))
			b.PackOneInt32(int32(ln))
			b.PackInt32(sub, ln, 1)
			p.Send(master, tagLeaf)
		} else {
			m := partition(sub)
			p.Compute(sim.Time(ln) * cfg.PartCost)
			b := p.InitSend()
			b.PackOneInt32(int32(lo))
			b.PackOneInt32(int32(m))
			b.PackOneInt32(int32(ln))
			b.PackInt32(sub, ln, 1)
			p.Send(master, tagSplit)
		}
	}
}

func (a *app) Master() func(*pvm.Proc) { return a.master }

// master owns the list and the work queue.
func (a *app) master(p *pvm.Proc) {
	cfg := a.cfg
	n := p.N()
	v := cfg.input()
	type rng struct{ lo, hi int }
	queue := []rng{{0, cfg.N}}
	waiting := []int{}
	outstanding := 0
	doneCount := 0
	doneSlaves := 0
	sendWork := func(slave int) {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		b := p.InitSend()
		b.PackOneInt32(1)
		b.PackOneInt32(int32(r.lo))
		b.PackOneInt32(int32(r.hi - r.lo))
		b.PackInt32(v[r.lo:r.hi], r.hi-r.lo, 1)
		p.Send(slave, tagWork)
		outstanding++
	}
	sendDone := func(slave int) {
		b := p.InitSend()
		b.PackOneInt32(0)
		p.Send(slave, tagWork)
		doneSlaves++
	}
	serveWaiting := func() {
		for len(waiting) > 0 && len(queue) > 0 {
			s := waiting[0]
			waiting = waiting[1:]
			sendWork(s)
		}
		if len(queue) == 0 && outstanding == 0 && doneCount == cfg.N {
			for _, s := range waiting {
				sendDone(s)
			}
			waiting = nil
		}
	}
	for doneSlaves < n {
		r := p.Recv(-1, -1)
		switch r.Tag() {
		case tagWorkReq:
			slave := int(r.UnpackOneInt32())
			if len(queue) > 0 {
				sendWork(slave)
			} else if outstanding == 0 && doneCount == cfg.N {
				sendDone(slave)
			} else {
				waiting = append(waiting, slave)
			}
		case tagLeaf:
			lo := int(r.UnpackOneInt32())
			ln := int(r.UnpackOneInt32())
			sub := make([]int32, ln)
			r.UnpackInt32(sub, ln, 1)
			copy(v[lo:lo+ln], sub)
			a.sink.add(lo, sub)
			doneCount += ln
			outstanding--
			serveWaiting()
		case tagSplit:
			lo := int(r.UnpackOneInt32())
			m := int(r.UnpackOneInt32())
			ln := int(r.UnpackOneInt32())
			sub := make([]int32, ln)
			r.UnpackInt32(sub, ln, 1)
			copy(v[lo:lo+ln], sub)
			queue = append(queue, rng{lo, lo + m}, rng{lo + m, lo + ln})
			outstanding--
			serveWaiting()
		}
	}
}
