package vnet

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// testConfig is a round-number model for predictable arithmetic:
// 10 bytes/µs bandwidth, 100 µs overheads, 50 µs latency, 1000 B MTU.
func testConfig() Config {
	return Config{
		SendOverhead: 100 * sim.Microsecond,
		RecvOverhead: 100 * sim.Microsecond,
		Latency:      50 * sim.Microsecond,
		BytesPerSec:  10 * 1000 * 1000,
		RecvPerByte:  0,
		MTU:          1000,
		HeaderBytes:  40,
	}
}

func TestPointToPointTiming(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, false)
	b := n.NewEndpoint(1, false)
	var recvAt sim.Time
	e.Spawn("a", false, func(c *sim.Ctx) {
		a.Send(c, b, 7, make([]byte, 1000))
		// sender: 100µs overhead + 1000B / 10B/µs = 100µs transmit = 200µs
		if c.Now() != 200*sim.Microsecond {
			t.Errorf("sender clock = %v, want 200µs", c.Now())
		}
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		m := b.Recv(c, -1, 7)
		recvAt = c.Now()
		if len(m.Payload) != 1000 {
			t.Errorf("payload = %d bytes", len(m.Payload))
		}
		if m.From != 0 || m.Tag != 7 {
			t.Errorf("metadata = %+v", m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// arrival 250µs + 100µs recv overhead = 350µs
	if recvAt != 350*sim.Microsecond {
		t.Fatalf("receiver clock = %v, want 350µs", recvAt)
	}
}

func TestDatagramFragmentAccounting(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, true)
	b := n.NewEndpoint(1, true)
	e.Spawn("a", false, func(c *sim.Ctx) {
		frags := a.Send(c, b, 1, make([]byte, 2500)) // 3 fragments at MTU 1000
		if frags != 3 {
			t.Errorf("frags = %d, want 3", frags)
		}
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		b.Recv(c, 0, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Messages != 3 {
		t.Fatalf("messages = %d, want 3", st.Messages)
	}
	if st.Bytes != 2500+3*40 {
		t.Fatalf("bytes = %d, want %d", st.Bytes, 2500+3*40)
	}
	if n.WireStats() != st {
		t.Fatalf("wire stats %+v != endpoint stats %+v", n.WireStats(), st)
	}
}

func TestStreamAccountingIsUserLevel(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, false)
	b := n.NewEndpoint(1, false)
	e.Spawn("a", false, func(c *sim.Ctx) {
		a.Send(c, b, 1, make([]byte, 2500)) // no fragmentation counting
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		b.Recv(c, -1, -1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Messages != 1 || st.Bytes != 2500 {
		t.Fatalf("stats = %+v, want 1 msg / 2500 B", st)
	}
}

func TestRecvFiltersByFromAndTag(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, false)
	b := n.NewEndpoint(1, false)
	c2 := n.NewEndpoint(2, false)
	e.Spawn("a", false, func(c *sim.Ctx) {
		a.Send(c, c2, 5, []byte("from-a"))
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		c.Compute(10 * sim.Microsecond)
		b.Send(c, c2, 5, []byte("from-b"))
		b.Send(c, c2, 9, []byte("tag-9"))
	})
	e.Spawn("c", false, func(c *sim.Ctx) {
		m := c2.Recv(c, 1, 9)
		if string(m.Payload) != "tag-9" {
			t.Errorf("got %q", m.Payload)
		}
		m = c2.Recv(c, 1, -1)
		if string(m.Payload) != "from-b" {
			t.Errorf("got %q", m.Payload)
		}
		m = c2.Recv(c, -1, 5)
		if string(m.Payload) != "from-a" {
			t.Errorf("got %q", m.Payload)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRecvTakesEarliestArrival: even if a later-arriving matching message
// was enqueued first, Recv must return the earliest arrival.
func TestRecvTakesEarliestArrival(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, false)
	b := n.NewEndpoint(1, false)
	dst := n.NewEndpoint(2, false)
	e.Spawn("a", false, func(c *sim.Ctx) {
		c.Compute(1000 * sim.Microsecond) // a sends late but runs first
		a.Send(c, dst, 1, []byte("late"))
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		c.Compute(100 * sim.Microsecond)
		b.Send(c, dst, 1, []byte("early"))
	})
	e.Spawn("dst", false, func(c *sim.Ctx) {
		if m := dst.Recv(c, -1, 1); string(m.Payload) != "early" {
			t.Errorf("first = %q, want early", m.Payload)
		}
		if m := dst.Recv(c, -1, 1); string(m.Payload) != "late" {
			t.Errorf("second = %q, want late", m.Payload)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFDDIDefaultsSane(t *testing.T) {
	cfg := FDDI()
	if cfg.BytesPerSec != 12500000 {
		t.Fatalf("bandwidth = %d, want 12.5 MB/s", cfg.BytesPerSec)
	}
	// One-way small message: 120 + ~0 + 60 + 120 ≈ 300 µs.
	oneWay := cfg.SendOverhead + cfg.Latency + cfg.RecvOverhead
	if oneWay < 250*sim.Microsecond || oneWay > 400*sim.Microsecond {
		t.Fatalf("one-way small-message cost = %v, want ~300µs", oneWay)
	}
	// 4 KB transfer adds ~330 µs of serialization.
	if tx := cfg.transmit(4096); tx < 300*sim.Microsecond || tx > 400*sim.Microsecond {
		t.Fatalf("4KB transmit = %v", tx)
	}
}

func TestZeroBandwidthMeansFreeTransmit(t *testing.T) {
	cfg := testConfig()
	cfg.BytesPerSec = 0
	if cfg.transmit(1<<20) != 0 {
		t.Fatal("transmit should be free with zero bandwidth")
	}
}

func TestLoopbackIsFreeAndUncounted(t *testing.T) {
	cfg := testConfig()
	cfg.LocalOverhead = 10 * sim.Microsecond
	cfg.LocalDelay = 5 * sim.Microsecond
	n := New(cfg)
	e := sim.NewEngine()
	app := n.NewEndpoint(3, true)
	srv := n.NewEndpoint(3, true) // same node: loopback
	e.Spawn("app", false, func(c *sim.Ctx) {
		app.Send(c, srv, 1, make([]byte, 5000))
		if c.Now() != 10*sim.Microsecond {
			t.Errorf("local send cost = %v, want 10µs", c.Now())
		}
	})
	var recvAt sim.Time
	e.Spawn("srv", false, func(c *sim.Ctx) {
		srv.Recv(c, -1, -1)
		recvAt = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.WireStats().Messages != 0 || n.WireStats().Bytes != 0 {
		t.Fatalf("loopback counted on wire: %+v", n.WireStats())
	}
	// arrival 15µs + 10µs local recv overhead
	if recvAt != 25*sim.Microsecond {
		t.Fatalf("recv at %v, want 25µs", recvAt)
	}
}

// TestFIFOPerPair: messages between one (src,dst) pair arrive in send
// order when latencies are uniform.
func TestFIFOPerPair(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, false)
	b := n.NewEndpoint(1, false)
	const k = 20
	e.Spawn("a", false, func(c *sim.Ctx) {
		for i := 0; i < k; i++ {
			a.Send(c, b, 1, []byte{byte(i)})
		}
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		for i := 0; i < k; i++ {
			m := b.Recv(c, 0, 1)
			if m.Payload[0] != byte(i) {
				t.Fatalf("got %d, want %d", m.Payload[0], i)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReusedEndpointFilterReset: a Recv's (from, tag) filter must die with
// the Recv.  The regression scenario: an endpoint is reused for a sequence
// of differently-filtered Recvs while senders keep delivering between
// them; a stale filter from a finished Recv must never satisfy the wake
// predicate or leak into a later receive.
func TestReusedEndpointFilterReset(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, false)
	b := n.NewEndpoint(1, false)
	dst := n.NewEndpoint(2, false)
	e.Spawn("a", false, func(c *sim.Ctx) {
		a.Send(c, dst, 1, []byte("a1"))
		c.Compute(500 * sim.Microsecond)
		// Delivered while dst sits between Recvs (no waiter armed); the
		// notify must be a no-op, not an evaluation of the dead (0, 1)
		// filter from dst's first Recv.
		a.Send(c, dst, 2, []byte("a2"))
		c.Compute(2000 * sim.Microsecond)
		a.Send(c, dst, 1, []byte("a3"))
	})
	e.Spawn("b", false, func(c *sim.Ctx) {
		c.Compute(100 * sim.Microsecond)
		b.Send(c, dst, 2, []byte("b1"))
	})
	e.Spawn("dst", false, func(c *sim.Ctx) {
		if m := dst.Recv(c, 0, 1); string(m.Payload) != "a1" {
			t.Errorf("recv 1 = %q, want a1", m.Payload)
		}
		c.Compute(1500 * sim.Microsecond) // a2 and b1 arrive while idle
		if m := dst.Recv(c, 1, -1); string(m.Payload) != "b1" {
			t.Errorf("recv 2 = %q, want b1", m.Payload)
		}
		if m := dst.Recv(c, -1, 2); string(m.Payload) != "a2" {
			t.Errorf("recv 3 = %q, want a2", m.Payload)
		}
		// Wildcard Recv must block for a3 (nothing else queued), not trip
		// over leftover filter state.
		if m := dst.Recv(c, -1, -1); string(m.Payload) != "a3" {
			t.Errorf("recv 4 = %q, want a3", m.Payload)
		}
		if len(dst.live) != 0 {
			t.Errorf("%d inbox buckets still hold messages, want 0", len(dst.live))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeepInboxSelection: with many messages queued from many senders
// across several tags, filtered and wildcard receives must still pick the
// earliest (Arrival, seq) match.
func TestDeepInboxSelection(t *testing.T) {
	n := New(testConfig())
	e := sim.NewEngine()
	const senders = 8
	dst := n.NewEndpoint(senders, false)
	for i := 0; i < senders; i++ {
		id := i
		ep := n.NewEndpoint(id, false)
		e.Spawn(fmt.Sprintf("s%d", id), false, func(c *sim.Ctx) {
			// Stagger so arrival order is the reverse of spawn order.
			c.Compute(sim.Time(senders-id) * 10 * sim.Microsecond)
			ep.Send(c, dst, id%3, []byte{byte(id)})
			ep.Send(c, dst, 5, []byte{byte(100 + id)})
		})
	}
	e.Spawn("dst", false, func(c *sim.Ctx) {
		c.Compute(sim.Second)
		c.Yield()
		queued := 0
		for _, b := range dst.live {
			queued += len(b.msgs) - b.head
		}
		if queued != 2*senders {
			t.Fatalf("queued = %d, want %d", queued, 2*senders)
		}
		// Earliest tag-5 message is from the latest-spawned sender.
		if m := dst.Recv(c, -1, 5); m.Payload[0] != 100+senders-1 {
			t.Errorf("tag-5 = %d, want %d", m.Payload[0], 100+senders-1)
		}
		// Exact filter digs out one pair regardless of queue depth.
		if m := dst.Recv(c, 3, 0); m.Payload[0] != 3 {
			t.Errorf("(3,0) = %d, want 3", m.Payload[0])
		}
		// Wildcard drains the rest in global (Arrival, seq) order.
		last := struct {
			at  sim.Time
			seq uint64
		}{}
		for len(dst.live) > 0 {
			m := dst.Recv(c, -1, -1)
			if m.Arrival < last.at || (m.Arrival == last.at && m.seq < last.seq) {
				t.Fatalf("out of order: %v/%d after %v/%d", m.Arrival, m.seq, last.at, last.seq)
			}
			last.at, last.seq = m.Arrival, m.seq
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAdd exercises the accumulator arithmetic.
func TestStatsAdd(t *testing.T) {
	a := Stats{Messages: 3, Bytes: 1000}
	a.Add(Stats{Messages: 2, Bytes: 500})
	if a.Messages != 5 || a.Bytes != 1500 {
		t.Fatalf("add = %+v", a)
	}
	if a.Kilobytes() != 1.5 {
		t.Fatalf("KB = %v", a.Kilobytes())
	}
}

// TestMessageFreeListReuse pins the consume contract: a freed message
// struct is recycled by the next send, payload and object references
// survive the free, and the pool never hands out a struct with stale
// fields.
func TestMessageFreeListReuse(t *testing.T) {
	n := New(FDDI())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, true)
	b := n.NewEndpoint(1, true)
	e.Spawn("pair", false, func(c *sim.Ctx) {
		payload := []byte{1, 2, 3}
		a.Send(c, b, 7, payload)
		c.Compute(sim.Second)
		m1 := b.Recv(c, 0, 7)
		if &m1.Payload[0] != &payload[0] {
			t.Error("first receive lost its payload")
			return
		}
		keep := m1.Payload
		b.Free(c, m1)
		if m1.Payload != nil || m1.Obj != nil {
			t.Error("Free must clear the struct's references")
		}
		// The freed struct must back the next send...
		obj := &struct{ x int }{42}
		a.SendObj(c, b, 8, obj, 100)
		c.Compute(sim.Second)
		m2 := b.Recv(c, 0, 8)
		if m2 != m1 {
			t.Error("pool did not recycle the freed message struct")
		}
		if m2.Obj != obj || m2.Tag != 8 || m2.Payload != nil {
			t.Errorf("recycled message carries stale fields: %+v", m2)
		}
		// ...while the earlier payload stays untouched.
		if keep[0] != 1 || keep[1] != 2 || keep[2] != 3 {
			t.Error("payload mutated by recycling")
		}
		b.Free(c, m2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateSendAllocFree: with the consume contract followed, a
// send/receive/free cycle in steady state allocates no message structs.
func TestSteadyStateSendAllocFree(t *testing.T) {
	n := New(FDDI())
	e := sim.NewEngine()
	a := n.NewEndpoint(0, true)
	b := n.NewEndpoint(1, true)
	payload := make([]byte, 64)
	var misses int
	e.Spawn("cycle", false, func(c *sim.Ctx) {
		// Warm the pool with round 0, then require every later round to
		// cycle the very same struct: a fresh pointer means the send
		// missed the pool and allocated.
		var reused *Message
		for i := 0; i < 100; i++ {
			a.Send(c, b, 1, payload)
			c.Compute(sim.Second)
			m := b.Recv(c, 0, 1)
			if i == 0 {
				reused = m
			} else if m != reused {
				misses++
			}
			b.Free(c, m)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if misses != 0 {
		t.Errorf("steady-state cycle missed the pool %d times", misses)
	}
}

// fullScanPeek is the wildcard selection as it was before the inbox kept
// a list of non-empty buckets: visit every bucket the endpoint has ever
// created, skip the empty ones, keep the earliest (Arrival, seq) head.
// (Arrival, seq) is a total order, so the map's visiting order is
// irrelevant, as the former creation-order list's was.
func fullScanPeek(e *Endpoint, from, tag int) *Message {
	var best *Message
	for _, b := range e.index {
		if b.empty() || (from >= 0 && b.from != from) || (tag >= 0 && b.tag != tag) {
			continue
		}
		if m := b.peek(); best == nil || m.Arrival < best.Arrival ||
			(m.Arrival == best.Arrival && m.seq < best.seq) {
			best = m
		}
	}
	return best
}

// checkLiveList reports a broken live list: it must hold exactly the
// non-empty buckets, each at the position it records.
func checkLiveList(e *Endpoint) error {
	nonEmpty := 0
	for _, b := range e.index {
		if !b.empty() {
			nonEmpty++
		}
	}
	if len(e.live) != nonEmpty {
		return fmt.Errorf("live list holds %d buckets, %d are non-empty", len(e.live), nonEmpty)
	}
	for i, b := range e.live {
		if b.empty() || b.live != i {
			return fmt.Errorf("live[%d] = (%d,%d): empty=%v, recorded position %d", i, b.from, b.tag, b.empty(), b.live)
		}
	}
	return nil
}

// TestWildcardPeekMatchesFullScanProperty: random interleavings of
// deliveries from many (from, tag) pairs with peek, Recv and RecvDeadline
// under exact, from-only, tag-only and full-wildcard filters must pick
// exactly the message a scan of every bucket picks, and leave
// the live list holding exactly the non-empty buckets.  Senders include
// one on the receiver's node (loopback arrives sooner than wire traffic
// sent earlier), so arrival order across buckets is not send order.  The
// run must see buckets empty and refill, and the only live bucket leave.
func TestWildcardPeekMatchesFullScanProperty(t *testing.T) {
	const senders, tags = 12, 5
	refills, lastOut := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := New(testConfig())
		e := sim.NewEngine()
		dst := n.NewEndpoint(0, true)
		src := make([]*Endpoint, senders)
		for i := range src {
			src[i] = n.NewEndpointID(i%4, 100+i, true) // node 0 is loopback to dst
		}
		var failed error
		e.Spawn("ops", false, func(c *sim.Ctx) {
			for step := 0; step < 600 && failed == nil; step++ {
				from, tag := -1, -1
				if r.Intn(2) == 0 {
					from = 100 + r.Intn(senders+1) // one id that never sends
				}
				if r.Intn(2) == 0 {
					tag = r.Intn(tags + 1)
				}
				want := fullScanPeek(dst, from, tag)
				before := len(dst.live)
				var got *Message
				op := r.Intn(10)
				switch {
				case op < 4:
					s := r.Intn(senders)
					tg := r.Intn(tags)
					if b := dst.index[[2]int{100 + s, tg}]; b != nil && b.empty() {
						refills++
					}
					src[s].Send(c, dst, tg, nil)
					if r.Intn(3) == 0 {
						c.Compute(sim.Time(r.Intn(400)) * sim.Microsecond)
					}
					if err := checkLiveList(dst); err != nil {
						failed = fmt.Errorf("step %d send: %v", step, err)
					}
					continue
				case op < 6:
					if _, m := dst.peek(from, tag); m != want {
						failed = fmt.Errorf("step %d: peek(%d,%d) got %+v, full scan picks %+v", step, from, tag, m, want)
					}
					continue
				case op < 7:
					if want == nil {
						continue // a blocking Recv with nothing to match would deadlock
					}
					got = dst.Recv(c, from, tag)
				default:
					dl := c.Now() + sim.Time(r.Intn(300))*sim.Microsecond
					got = dst.RecvDeadline(c, from, tag, dl)
					if want != nil && want.Arrival > dl {
						want = nil
					}
				}
				if got != want {
					failed = fmt.Errorf("step %d: receive(%d,%d) got %+v, full scan picks %+v", step, from, tag, got, want)
					break
				}
				if got != nil {
					if before == 1 && len(dst.live) == 0 {
						lastOut++
					}
					dst.Free(c, got)
				}
				if err := checkLiveList(dst); err != nil {
					failed = fmt.Errorf("step %d receive: %v", step, err)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if failed != nil {
			t.Fatalf("seed %d: %v", seed, failed)
		}
	}
	if refills == 0 || lastOut == 0 {
		t.Fatalf("generator too tame: %d refills of an emptied bucket, %d removals of the only live bucket", refills, lastOut)
	}
}
