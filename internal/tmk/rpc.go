package tmk

import (
	"repro/internal/sim"
	"repro/internal/vnet"
)

// At-least-once RPC, the layer the package fault-model doc describes:
// rpcRecv is the client half, replyCache the server half.  Sequence
// numbers are nonzero exactly when the network is lossy, so on a
// fault-free network rpcRecv is a plain Recv and no cache is written.

// rpcMsg is one side of a request/reply pair: the sequence number the
// request carries and the reply echoes (zero: unsequenced), and the
// modeled size.  Seq rides in the per-fragment header vnet already
// charges (HeaderBytes), like the real system's UDP request ids, so no
// wire layout walks it and fault-free runs are byte-identical.  size is
// wireSize on the concrete type; wireSize on an interface value would
// move its codec to the heap.
type rpcMsg interface {
	seq() int
	size() int
}

func (m *acqMsg) seq() int      { return m.Seq }
func (m *grantMsg) seq() int    { return m.Seq }
func (m *barrMsg) seq() int     { return m.Seq }
func (m *diffReqMsg) seq() int  { return m.Seq }
func (m *diffRespMsg) seq() int { return m.Seq }

// seq is zero: the combining-tree barrier runs only on a fault-free
// network (Config.Validate).
func (m *treeArrMsg) seq() int { return 0 }

func (m *acqMsg) size() int      { return wireSize(m) }
func (m *grantMsg) size() int    { return wireSize(m) }
func (m *barrMsg) size() int     { return wireSize(m) }
func (m *treeArrMsg) size() int  { return wireSize(m) }
func (m *diffReqMsg) size() int  { return wireSize(m) }
func (m *diffRespMsg) size() int { return wireSize(m) }

// nextRPC returns a new request's sequence number: nonzero and
// increasing per processor when the layer is armed, zero otherwise.
func (p *Proc) nextRPC() int {
	if !p.sys.reliable {
		return 0
	}
	p.rpcSeq++
	return p.rpcSeq
}

// rpcRecv blocks for the reply (from, tag) to req, which went to the
// endpoint to under reqTag, and returns the reply object (the envelope
// is recycled).  An unsequenced request waits in a plain Recv.  A
// sequenced one waits with a deadline: on timeout req is retransmitted
// and the deadline doubles up to the cap; a reply whose Seq is not
// req's is a stale duplicate, ignored.
func (p *Proc) rpcRecv(ctx *sim.Ctx, from, tag int, req rpcMsg, to *vnet.Endpoint, reqTag int) any {
	want, wait := req.seq(), p.sys.rBase
	for {
		var m *vnet.Message
		if want == 0 {
			m = p.ep.Recv(ctx, from, tag)
		} else if m = p.ep.RecvDeadline(ctx, from, tag, ctx.Now()+wait); m == nil {
			p.Timeouts++
			p.ep.SendObjRetrans(ctx, to, reqTag, req, req.size())
			wait = min(2*wait, p.sys.rCap)
			continue
		}
		obj := m.Obj
		p.ep.Free(ctx, m)
		if want == 0 || obj.(rpcMsg).seq() == want {
			return obj
		}
	}
}

// rpcOutcome is how a server treats an incoming request.
type rpcOutcome uint8

const (
	rpcFresh  rpcOutcome = iota // not answered yet: serve it
	rpcRepeat                   // the client's newest answered request again: its reply may be lost
	rpcStale                    // older still: the client has provably moved on
)

// replyCache is the server half of the layer: per client, the newest
// request answered and the reply that answered it.  A client's requests
// to one server carry increasing sequence numbers and it waits for each
// reply before its next request, so the newest answer is the only one a
// retransmission can still be asking for.
type replyCache struct {
	last []cachedReply // by client; grown on first answer
	// newest is the client answered most recently.
	newest int
	// supersede: every answer cancels the ones before it, so only the
	// newest client's repeat is answered again (the lock grantor: its
	// grants pass one token, and ownership cannot move past a grantee
	// before that grantee has its grant).
	supersede bool
}

// cachedReply is the answer to one client's request seq, kept for
// resending.
type cachedReply struct {
	seq int
	to  *vnet.Endpoint // nil: answered on this processor, nothing to resend
	tag int
	msg rpcMsg
}

// check classifies request seq from client.  An unsequenced request is
// always fresh.
func (c *replyCache) check(client, seq int) rpcOutcome {
	if seq == 0 || client >= len(c.last) || seq > c.last[client].seq {
		return rpcFresh
	}
	if seq == c.last[client].seq {
		return rpcRepeat
	}
	return rpcStale
}

// admit reports whether request seq from client is fresh.  A repeat is
// answered again through SendObjRetrans (unless a later answer to
// another client superseded it); a stale request is dropped.
func (c *replyCache) admit(ctx *sim.Ctx, from *vnet.Endpoint, client, seq int) bool {
	switch c.check(client, seq) {
	case rpcFresh:
		return true
	case rpcRepeat:
		if !c.supersede || c.newest == client {
			c.resend(ctx, from, client)
		}
	}
	return false
}

// reply sends r and keeps it as client's newest answer.
func (c *replyCache) reply(ctx *sim.Ctx, from *vnet.Endpoint, client int, r cachedReply) {
	from.SendObj(ctx, r.to, r.tag, r.msg, r.msg.size())
	c.keep(client, r)
}

// keep records r as client's newest answer, a no-op for an unsequenced
// request.
func (c *replyCache) keep(client int, r cachedReply) {
	if r.seq == 0 {
		return
	}
	for len(c.last) <= client {
		c.last = append(c.last, cachedReply{})
	}
	c.last[client] = r
	c.newest = client
}

// resend retransmits client's kept answer.
func (c *replyCache) resend(ctx *sim.Ctx, from *vnet.Endpoint, client int) {
	r := &c.last[client]
	from.SendObjRetrans(ctx, r.to, r.tag, r.msg, r.msg.size())
}
