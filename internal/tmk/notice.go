package tmk

import (
	"repro/internal/sim"
	"repro/internal/vnet"
)

// noticeKind is how an interval's write notices reach other processors.
type noticeKind uint8

const (
	noticesLazy    noticeKind = iota // piggybacked on the next grant or departure (the paper's protocol)
	noticesFlat                      // eager: the writer sends every copy at interval close (EagerInvalidate)
	noticesRelayed                   // eager: through a writer-rooted multicast tree (TreeFanout)
)

// noticeVariant is the notice protocol NewSystem chose, with its
// parameter.
type noticeVariant struct {
	kind  noticeKind
	radix int // relayed: children per tree node
}

// broadcastInvalidation ships a freshly closed interval's write notices
// to every other processor's service daemon, unless notices are lazy.
// Relayed, the writer only seeds its multicast-tree children; their
// service daemons relay onward (see handleInval), so the writer's serial
// send burst is O(k) instead of O(P).  Message and byte totals are
// identical either way: n-1 copies of the same notice.
func (p *Proc) broadcastInvalidation(rec *IntervalRec) {
	if p.sys.notices.kind == noticesLazy || p.sys.n == 1 {
		return
	}
	m := &invMsg{From: p.id, Records: []*IntervalRec{rec}}
	if p.sys.notices.kind == noticesRelayed {
		p.sendInvalChildren(p.app, p.ep, m, 0)
		return
	}
	size := wireSize(m)
	for q := 0; q < p.sys.n; q++ {
		if q == p.id {
			continue
		}
		p.ep.SendObj(p.app, p.sys.procs[q].srv, tagInval, m, size)
	}
}

// sendInvalChildren forwards an eager notice to this node's children in
// the radix-k multicast tree rooted at the writer: position q in the
// tree is processor (writer+q) mod n, so every broadcast uses the same
// balanced shape regardless of who wrote.  The shared invMsg is
// immutable and travels by reference, each hop charged its full wire
// size.
func (p *Proc) sendInvalChildren(ctx *sim.Ctx, from *vnet.Endpoint, m *invMsg, pos int) {
	n, k := p.sys.n, p.sys.notices.radix
	size := wireSize(m)
	for s := 1; s <= k; s++ {
		cpos := k*pos + s
		if cpos >= n {
			return
		}
		q := (m.From + cpos) % n
		from.SendObj(ctx, p.sys.procs[q].srv, tagInval, m, size)
	}
}

// handleInval runs in the service daemon on an eager invalidation.  A
// record is applied immediately unless one of its pages is busy — twinned
// (the application thread is mid-write: invalidating now would tear the
// interval) or mid-fault (the fault already chose which diffs to fetch;
// a new notice would be applied without its diff) — or earlier notices
// are already deferred (per-writer order must hold).  Deferred records
// wait for the next interval close, when no page is busy; a record that
// meanwhile arrives through a grant or departure is applied there and
// skipped as a duplicate at drain time.  A relayed notice is first
// forwarded to this processor's children in the writer's tree.
func (p *Proc) handleInval(ctx *sim.Ctx, m *invMsg) {
	if p.sys.notices.kind == noticesRelayed {
		p.sendInvalChildren(ctx, p.srv, m, (p.id-m.From+p.sys.n)%p.sys.n)
	}
	if len(p.pendInv) == 0 && !p.recsTouchBusy(m.Records) {
		p.applyRecords(m.Records)
		return
	}
	p.pendInv = append(p.pendInv, m.Records...)
}

// recsTouchBusy reports whether any record names a twinned or mid-fault
// page.
func (p *Proc) recsTouchBusy(recs []*IntervalRec) bool {
	for _, r := range recs {
		if p.recTouchesBusy(r) {
			return true
		}
	}
	return false
}

// drainInvalidations applies the deferred eager notices.  Callers
// guarantee no page is twinned (interval just closed, or none was open).
func (p *Proc) drainInvalidations() {
	if len(p.pendInv) == 0 {
		return
	}
	recs := p.pendInv
	p.pendInv = p.pendInv[:0]
	p.applyRecords(recs)
}
