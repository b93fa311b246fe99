package vnet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// BenchmarkEngine measures the scheduler's per-message cost with a token
// circulating around a ring of procs, all blocked in Recv except the
// holder.  One benchmark iteration is one full circulation (procs hops);
// the hop/op metric is the per-scheduling-step cost.  Larger rings expose
// how the engine's step cost scales with the number of blocked procs.
func BenchmarkEngine(b *testing.B) {
	for _, procs := range []int{2, 8, 32, 64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			n := New(FDDI())
			e := sim.NewEngine()
			eps := make([]*Endpoint, procs)
			for i := range eps {
				eps[i] = n.NewEndpoint(i, true)
			}
			payload := make([]byte, 64)
			k := b.N
			for i := 0; i < procs; i++ {
				id := i
				e.Spawn(fmt.Sprintf("p%d", id), false, func(c *sim.Ctx) {
					prev := (id + procs - 1) % procs
					next := (id + 1) % procs
					if id == 0 {
						eps[0].Send(c, eps[next], 1, payload)
					}
					for r := 0; r < k; r++ {
						eps[id].Recv(c, prev, 1)
						if id == 0 && r == k-1 {
							break // final hop: stop the token
						}
						eps[id].Send(c, eps[next], 1, payload)
					}
				})
			}
			// Level the collector before timing: the ring retains every
			// message until the engine is discarded, so without this the
			// garbage inherited from earlier subbenchmarks skews GC pacing
			// run-to-run.
			runtime.GC()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs), "ns/hop")
		})
	}
}

// BenchmarkInboxDepth measures receive cost against a deep inbox: depth
// background messages stay queued at the endpoint while the hot pair
// sends and consumes b.N times.  "exact" filters by (from, tag) — the
// fault-path pattern — and must be O(1) in depth; "wildcard" consumes
// from a single backlogged stream with (-1, -1) — the service-daemon
// pattern — and must scan bucket heads, not queued messages.
func BenchmarkInboxDepth(b *testing.B) {
	for _, depth := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("exact/depth=%d", depth), func(b *testing.B) {
			n := New(FDDI())
			e := sim.NewEngine()
			dst := n.NewEndpoint(0, true)
			hot := n.NewEndpoint(1, true)
			fill := make([]*Endpoint, depth)
			for i := range fill {
				fill[i] = n.NewEndpoint(2+i, true)
			}
			payload := make([]byte, 32)
			k := b.N
			e.Spawn("bench", false, func(c *sim.Ctx) {
				for _, f := range fill {
					f.Send(c, dst, 9, payload)
				}
				for i := 0; i < k; i++ {
					hot.Send(c, dst, 1, payload)
					c.Compute(sim.Second)
					dst.Recv(c, 1, 1)
				}
			})
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("wildcard/depth=%d", depth), func(b *testing.B) {
			n := New(FDDI())
			e := sim.NewEngine()
			dst := n.NewEndpoint(0, true)
			hot := n.NewEndpoint(1, true)
			payload := make([]byte, 32)
			k := b.N
			e.Spawn("bench", false, func(c *sim.Ctx) {
				for i := 0; i < depth; i++ {
					hot.Send(c, dst, 9, payload) // one deep backlogged stream
				}
				for i := 0; i < k; i++ {
					hot.Send(c, dst, 1, payload)
					c.Compute(sim.Second)
					dst.Recv(c, -1, 1)
				}
			})
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkInboxWildcard measures a wildcard receive on a service-style
// endpoint that has heard from many (from, tag) pairs but holds messages
// in only a few: every (from, tag) bucket is created and drained first,
// then live of them keep one message each.  One op consumes the earliest
// message with (-1, -1) and resends on its pair, so a bucket empties and
// refills every op.  ns/op should not grow with the bucket count; 448 is
// a P=64 service endpoint's 64 senders x 7 request tags.
func BenchmarkInboxWildcard(b *testing.B) {
	for _, shape := range []struct{ senders, tags int }{{8, 1}, {64, 1}, {64, 7}} {
		for _, live := range []int{1, 4} {
			b.Run(fmt.Sprintf("buckets=%d/live=%d", shape.senders*shape.tags, live), func(b *testing.B) {
				n := New(FDDI())
				e := sim.NewEngine()
				dst := n.NewEndpoint(0, true)
				src := make([]*Endpoint, shape.senders)
				for i := range src {
					src[i] = n.NewEndpoint(1+i, true)
				}
				k := b.N
				e.Spawn("bench", false, func(c *sim.Ctx) {
					for _, s := range src {
						for tag := 0; tag < shape.tags; tag++ {
							s.Send(c, dst, tag, nil)
						}
					}
					c.Compute(sim.Second)
					for range shape.senders * shape.tags {
						dst.Free(c, dst.Recv(c, -1, -1))
					}
					for i := 0; i < live; i++ {
						src[i*5%shape.senders].Send(c, dst, i%shape.tags, nil)
					}
					c.Compute(sim.Second)
					b.ResetTimer()
					for i := 0; i < k; i++ {
						m := dst.Recv(c, -1, -1)
						src[m.From-1].Send(c, dst, m.Tag, nil)
						dst.Free(c, m)
						c.Compute(sim.Second)
					}
				})
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
