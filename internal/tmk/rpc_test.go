package tmk

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/vnet"
)

// runCache runs body as a server answering three clients on a
// fault-free network, and returns the wire totals plus how many
// messages each client was sent.
func runCache(t *testing.T, body func(ctx *sim.Ctx, srv *vnet.Endpoint, cli []*vnet.Endpoint)) (vnet.Stats, []int) {
	t.Helper()
	e := sim.NewEngine()
	net := vnet.New(vnet.FDDI())
	srv := net.NewEndpoint(0, true)
	cli := []*vnet.Endpoint{net.NewEndpoint(1, true), net.NewEndpoint(2, true), net.NewEndpoint(3, true)}
	e.Spawn("srv", false, func(ctx *sim.Ctx) { body(ctx, srv, cli) })
	got := make([]int, len(cli))
	for i, ep := range cli {
		e.Spawn(fmt.Sprintf("cli%d", i+1), false, func(ctx *sim.Ctx) {
			for ep.RecvDeadline(ctx, -1, -1, sim.Second) != nil {
				got[i]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return net.WireStats(), got
}

// grant is client's answer to request seq.
func grant(cli []*vnet.Endpoint, client, seq int) cachedReply {
	return cachedReply{seq: seq, to: cli[client], tag: tagGrant, msg: &grantMsg{Seq: seq}}
}

// TestReplyCacheOutcomes drives one cache through its three outcomes for
// a client whose request 5 was answered: request 6 is fresh and served,
// 5 again is answered again as a retransmission, and 4 is dropped.
// Unsequenced requests and other clients never touch the entry.
func TestReplyCacheOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		client    int
		seq       int
		want      rpcOutcome
		resent    int64 // retransmissions admit sends
		toClient1 int   // messages client 1 holds at the end
	}{
		{"fresh", 1, 6, rpcFresh, 0, 1},
		{"repeat", 1, 5, rpcRepeat, 1, 2},
		{"stale", 1, 4, rpcStale, 0, 1},
		{"unsequenced", 1, 0, rpcFresh, 0, 1},
		{"other client", 2, 5, rpcFresh, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c replyCache
			var out rpcOutcome
			var fresh bool
			st, got := runCache(t, func(ctx *sim.Ctx, srv *vnet.Endpoint, cli []*vnet.Endpoint) {
				if c.check(1, 5) != rpcFresh {
					t.Error("unanswered request 5 is not fresh")
				}
				c.reply(ctx, srv, 1, grant(cli, 1, 5))
				out = c.check(tc.client, tc.seq)
				fresh = c.admit(ctx, srv, tc.client, tc.seq)
			})
			if out != tc.want {
				t.Errorf("check(%d, %d) = %d, want %d", tc.client, tc.seq, out, tc.want)
			}
			if fresh != (tc.want == rpcFresh) {
				t.Errorf("admit(%d, %d) = %v for outcome %d", tc.client, tc.seq, fresh, tc.want)
			}
			if st.Messages != 1 || st.Retrans != tc.resent {
				t.Errorf("wire: %d messages, %d retransmissions; want 1, %d", st.Messages, st.Retrans, tc.resent)
			}
			if got[1] != tc.toClient1 {
				t.Errorf("client 1 was sent %d messages, want %d", got[1], tc.toClient1)
			}
		})
	}
}

// TestReplyCacheSupersede pins the lock grantor's rule: once a grant
// goes to client 2, client 1's repeat of its own answered request is
// dropped — ownership has provably moved past it — while client 2's
// repeat gets its grant again.  Without supersede both are answered.
func TestReplyCacheSupersede(t *testing.T) {
	for _, tc := range []struct {
		supersede bool
		toClient1 int   // client 1's grant, plus its resend unless superseded
		resent    int64 // client 2's resend, plus client 1's unless superseded
	}{{true, 1, 1}, {false, 2, 2}} {
		c := replyCache{supersede: tc.supersede}
		st, got := runCache(t, func(ctx *sim.Ctx, srv *vnet.Endpoint, cli []*vnet.Endpoint) {
			c.reply(ctx, srv, 1, grant(cli, 1, 5))
			c.reply(ctx, srv, 2, grant(cli, 2, 9))
			if c.admit(ctx, srv, 1, 5) || c.admit(ctx, srv, 2, 9) {
				t.Error("a repeat was admitted as fresh")
			}
		})
		if got[1] != tc.toClient1 || got[2] != 2 {
			t.Errorf("supersede=%v: clients 1 and 2 were sent %d and %d messages, want %d and 2",
				tc.supersede, got[1], got[2], tc.toClient1)
		}
		if st.Messages != 2 || st.Retrans != tc.resent {
			t.Errorf("supersede=%v: %d messages, %d retransmissions; want 2, %d",
				tc.supersede, st.Messages, st.Retrans, tc.resent)
		}
	}
	p := &Proc{sys: &System{n: 2, lockMgrs: 2}, locks: map[int]*plock{}}
	if !p.lock(0).grants.supersede {
		t.Error("the lock grantor's cache does not supersede")
	}
}
