package tmk

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vnet"
)

// ---------------------------------------------------------------------
// Locks (paper §2.2.2: static manager, request forwarding, silent release).

// plock is a processor's view of one lock.
type plock struct {
	owned     bool     // this proc holds the token (may re-acquire locally)
	held      bool     // app thread is inside the critical section
	awaiting  bool     // acquire request outstanding
	releaseVC VC       // vc snapshot at the last release
	releaseAt sim.Time // virtual time of the last release
	next      *acqMsg  // queued request (nil: none)
	mgrLast   int      // manager only: last processor to request the lock

	fwds   replyCache // manager: each requester's forward (to this processor: the grantor path)
	grants replyCache // grantor: each requester's grant; supersede set
}

func (p *Proc) lock(id int) *plock {
	lk, ok := p.locks[id]
	if !ok {
		lk = &plock{releaseVC: NewVC(p.sys.n), grants: replyCache{supersede: true}}
		mgr := p.manager(id)
		if p.id == mgr {
			lk.owned = true // locks start out owned by their manager
			lk.mgrLast = mgr
		}
		p.locks[id] = lk
	}
	return lk
}

func (p *Proc) manager(lockID int) int { return lockID % p.sys.lockMgrs }

// LockAcquire acquires lock id (Tmk_lock_acquire).  If this processor was
// the last holder and nobody has requested the lock since, the acquire is
// local and costs no messages.
func (p *Proc) LockAcquire(id int) {
	// Scheduling point: let protocol events with earlier virtual times
	// (e.g. a pending ownership forward) settle before we examine state.
	p.app.Yield()
	lk := p.lock(id)
	if lk.held {
		panic(fmt.Sprintf("tmk: proc %d re-acquiring held lock %d", p.id, id))
	}
	if lk.owned {
		lk.held = true
		return
	}
	p.closeInterval()
	lk.awaiting = true
	// The live vector backs the request timestamp without a clone: this
	// processor blocks until the grant arrives, and every reader (manager,
	// owner) runs while it is blocked, so the vector cannot move under
	// them.  Under faults a stale duplicate of the request can outlive
	// the block, so the sequenced path clones.
	req := &acqMsg{Lock: id, Requester: p.id, Seq: p.nextRPC(), VC: p.vc}
	if req.Seq > 0 {
		req.VC = p.arena.cloneVC(p.vc)
	}
	mgr := p.manager(id)
	to, tag := p.sys.procs[mgr].srv, tagAcqReq
	if mgr == p.id {
		// We are the manager: perform the manager step locally and
		// forward straight to the last requester.
		prev := lk.mgrLast
		lk.mgrLast = p.id
		if prev == p.id {
			panic("tmk: manager re-requesting a lock it last requested but does not own")
		}
		to, tag = p.sys.procs[prev].srv, tagAcqFwd
	}
	p.ep.SendObj(p.app, to, tag, req, wireSize(req))
	t0 := p.app.Now()
	g := p.rpcRecv(p.app, -1, tagGrant, req, to, tag).(*grantMsg)
	p.LockWait += p.app.Now() - t0
	if g.Lock != id {
		panic(fmt.Sprintf("tmk: proc %d got grant for lock %d while acquiring %d", p.id, g.Lock, id))
	}
	p.applyRecords(g.Records)
	lk.awaiting = false
	lk.owned = true
	lk.held = true
}

// LockRelease releases lock id (Tmk_lock_release).  The release itself
// sends no message; if another processor's request is queued here,
// ownership transfers now.
func (p *Proc) LockRelease(id int) {
	lk := p.lock(id)
	if !lk.held {
		panic(fmt.Sprintf("tmk: proc %d releasing lock %d it does not hold", p.id, id))
	}
	p.closeInterval()
	lk.held = false
	lk.releaseVC = p.vc.Clone()
	lk.releaseAt = p.app.Now()
	if lk.next != nil {
		p.sendGrant(p.app, p.ep, lk, lk.next)
		lk.owned = false
		lk.next = nil
	}
	// Scheduling point so queued protocol work at earlier virtual times
	// (e.g. a forward racing this release) settles before we run on.
	p.app.Yield()
}

// sendGrant answers req with lock ownership and the write notices the
// requester lacks, bounded by what this processor knew at its release.
func (p *Proc) sendGrant(ctx *sim.Ctx, from *vnet.Endpoint, lk *plock, req *acqMsg) {
	g := &grantMsg{Lock: req.Lock, Seq: req.Seq, Records: p.recordsNotCoveredBy(req.VC, lk.releaseVC)}
	lk.grants.reply(ctx, from, req.Requester, cachedReply{seq: req.Seq,
		to: p.sys.procs[req.Requester].ep, tag: tagGrant, msg: g})
}

// handleAcqReq is the lock manager's step: forward the request to the
// last requester, or take the grantor path if that was this processor.
// A repeated request is forwarded again to the target recorded for it
// (the forward or the grant may have been lost).
func (p *Proc) handleAcqReq(ctx *sim.Ctx, req *acqMsg) {
	lk := p.lock(req.Lock)
	switch lk.fwds.check(req.Requester, req.Seq) {
	case rpcFresh:
		prev := lk.mgrLast
		lk.mgrLast = req.Requester
		if prev == p.id {
			lk.fwds.keep(req.Requester, cachedReply{seq: req.Seq})
			p.grantOrQueue(ctx, req)
		} else {
			lk.fwds.reply(ctx, p.srv, req.Requester, cachedReply{seq: req.Seq,
				to: p.sys.procs[prev].srv, tag: tagAcqFwd, msg: req})
		}
	case rpcRepeat:
		if lk.fwds.last[req.Requester].to == nil {
			p.grantOrQueue(ctx, req)
		} else {
			lk.fwds.resend(ctx, p.srv, req.Requester)
		}
	}
}

// grantOrQueue hands the lock to the requester if this processor is done
// with it, or queues the request for the next release.  A repeat of an
// answered request gets its grant again if no later grant superseded it;
// a repeat of the queued request is dropped.
func (p *Proc) grantOrQueue(ctx *sim.Ctx, req *acqMsg) {
	lk := p.lock(req.Lock)
	if !lk.grants.admit(ctx, p.srv, req.Requester, req.Seq) {
		return
	}
	if req.Seq > 0 && lk.next != nil && lk.next.Requester == req.Requester && lk.next.Seq == req.Seq {
		return // repeat of the queued request
	}
	if !lk.owned && !lk.awaiting {
		panic(fmt.Sprintf("tmk: proc %d got forward for lock %d it neither owns nor awaits",
			p.id, req.Lock))
	}
	if lk.held || lk.awaiting {
		if lk.next != nil {
			panic("tmk: second queued lock requester")
		}
		lk.next = req
		return
	}
	// Lock is free.  Its release happened at lk.releaseAt; a grant cannot
	// precede that release in virtual time.
	if lk.releaseAt > ctx.Now() {
		ctx.Compute(lk.releaseAt - ctx.Now())
	}
	p.sendGrant(ctx, p.srv, lk, req)
	lk.owned = false
}
