package pvm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/vnet"
)

func newWorld(n int) (*sim.Engine, *System) {
	eng := sim.NewEngine()
	net := vnet.New(vnet.FDDI())
	return eng, New(eng, net, n)
}

func TestPingPong(t *testing.T) {
	eng, sys := newWorld(2)
	sys.Spawn(0, func(p *Proc) {
		b := p.InitSend()
		b.PackOneInt32(42)
		b.PackFloat64([]float64{1.5, 2.5, 3.5}, 3, 1)
		b.PackOneInt64(-1 << 40)
		p.Send(1, 9)
		r := p.Recv(1, 10)
		if got := r.UnpackOneInt32(); got != 43 {
			t.Errorf("reply = %d, want 43", got)
		}
	})
	sys.Spawn(1, func(p *Proc) {
		r := p.Recv(0, 9)
		if got := r.UnpackOneInt32(); got != 42 {
			t.Errorf("got %d, want 42", got)
		}
		fs := make([]float64, 3)
		r.UnpackFloat64(fs, 3, 1)
		if fs[0] != 1.5 || fs[1] != 2.5 || fs[2] != 3.5 {
			t.Errorf("floats = %v", fs)
		}
		if got := r.UnpackOneInt64(); got != -1<<40 {
			t.Errorf("int64 = %d, want %d", got, int64(-1<<40))
		}
		b := p.InitSend()
		b.PackOneInt32(43)
		p.Send(0, 10)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := sys.UserStats()
	if st.Messages != 2 {
		t.Fatalf("messages = %d, want 2", st.Messages)
	}
}

func TestStridePackUnpack(t *testing.T) {
	eng, sys := newWorld(2)
	src := []int32{0, 10, 1, 11, 2, 12, 3, 13}
	sys.Spawn(0, func(p *Proc) {
		b := p.InitSend()
		b.PackInt32(src[1:], 4, 2) // 10, 11, 12, 13
		p.Send(1, 1)
	})
	sys.Spawn(1, func(p *Proc) {
		r := p.Recv(0, 1)
		dst := make([]int32, 7)
		r.UnpackInt32(dst, 4, 2) // positions 0,2,4,6
		want := []int32{10, 0, 11, 0, 12, 0, 13}
		for i := range want {
			if dst[i] != want[i] {
				t.Errorf("dst = %v, want %v", dst, want)
				break
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	eng, sys := newWorld(2)
	sys.Spawn(0, func(p *Proc) {
		b := p.InitSend()
		b.PackOneFloat64(3.14)
		p.Send(1, 1)
	})
	sys.Spawn(1, func(p *Proc) {
		r := p.Recv(0, 1)
		r.UnpackOneInt32() // wrong type: must panic
	})
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "type mismatch") {
		t.Fatalf("err = %v, want type mismatch", err)
	}
}

func TestCountMismatchPanics(t *testing.T) {
	eng, sys := newWorld(2)
	sys.Spawn(0, func(p *Proc) {
		b := p.InitSend()
		b.PackInt32([]int32{1, 2, 3}, 3, 1)
		p.Send(1, 1)
	})
	sys.Spawn(1, func(p *Proc) {
		r := p.Recv(0, 1)
		dst := make([]int32, 2)
		r.UnpackInt32(dst, 2, 1)
	})
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "count mismatch") {
		t.Fatalf("err = %v, want count mismatch", err)
	}
}

func TestUnpackPastEndPanics(t *testing.T) {
	eng, sys := newWorld(2)
	sys.Spawn(0, func(p *Proc) {
		p.InitSend()
		p.Send(1, 1) // empty buffer
	})
	sys.Spawn(1, func(p *Proc) {
		r := p.Recv(0, 1)
		r.UnpackOneInt32()
	})
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "past end") {
		t.Fatalf("err = %v, want past-end panic", err)
	}
}

func TestBcastReachesAllOthers(t *testing.T) {
	const n = 5
	eng, sys := newWorld(n)
	got := make([]int32, n)
	sys.Spawn(0, func(p *Proc) {
		b := p.InitSend()
		b.PackOneInt32(99)
		p.Bcast(4)
	})
	for i := 1; i < n; i++ {
		id := i
		sys.Spawn(id, func(p *Proc) {
			got[id] = p.Recv(0, 4).UnpackOneInt32()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if got[i] != 99 {
			t.Fatalf("proc %d got %d", i, got[i])
		}
	}
	if st := sys.UserStats(); st.Messages != n-1 {
		t.Fatalf("bcast counted %d messages, want %d", st.Messages, n-1)
	}
}

func TestMcastSubset(t *testing.T) {
	eng, sys := newWorld(4)
	sys.Spawn(0, func(p *Proc) {
		b := p.InitSend()
		b.PackOneInt32(7)
		p.Mcast([]int{2, 3}, 1)
	})
	sys.Spawn(1, func(p *Proc) {})
	for _, id := range []int{2, 3} {
		sys.Spawn(id, func(p *Proc) {
			if v := p.Recv(0, 1).UnpackOneInt32(); v != 7 {
				t.Errorf("got %d", v)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// One message per member: none went to proc 1.
	if st := sys.UserStats(); st.Messages != 2 {
		t.Fatalf("mcast counted %d messages, want 2", st.Messages)
	}
}

func TestSendWithoutInitSendPanics(t *testing.T) {
	eng, sys := newWorld(2)
	sys.Spawn(0, func(p *Proc) {
		p.Send(1, 1)
	})
	sys.Spawn(1, func(p *Proc) {})
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "InitSend") {
		t.Fatalf("err = %v", err)
	}
}

func TestSpawnExtraMaster(t *testing.T) {
	eng, sys := newWorld(2)
	masterID := -1
	results := make(chan int32, 2) // buffered; engine is serial so no race
	sys.Spawn(0, func(p *Proc) {
		r := p.Recv(masterID, 5)
		results <- r.UnpackOneInt32()
	})
	sys.Spawn(1, func(p *Proc) {
		r := p.Recv(masterID, 5)
		results <- r.UnpackOneInt32()
	})
	masterID = sys.SpawnExtraAt("master", -1, func(p *Proc) {
		if p.ID() != 2 || p.N() != 2 || sys.NumTasks() != 2 {
			t.Errorf("master sees id %d, %d processes, %d tasks; want 2, 2, 2", p.ID(), p.N(), sys.NumTasks())
		}
		for i := 0; i < 2; i++ {
			b := p.InitSend()
			b.PackOneInt32(int32(100 + i))
			p.Send(i, 5)
		}
	})
	if masterID != 2 {
		t.Fatalf("master id = %d, want 2", masterID)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	a, b := <-results, <-results
	if a+b != 201 {
		t.Fatalf("results %d + %d", a, b)
	}
}

func TestXDRChargesTime(t *testing.T) {
	run := func(xdr bool) sim.Time {
		eng, sys := newWorld(2)
		if xdr {
			sys.EnableXDR(100 * sim.Nanosecond)
		}
		sys.Spawn(0, func(p *Proc) {
			b := p.InitSend()
			b.PackFloat64(make([]float64, 10000), 10000, 1)
			p.Send(1, 1)
		})
		sys.Spawn(1, func(p *Proc) {
			dst := make([]float64, 10000)
			p.Recv(0, 1).UnpackFloat64(dst, 10000, 1)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.MaxPrimaryClock()
	}
	plain, withXDR := run(false), run(true)
	if withXDR <= plain {
		t.Fatalf("XDR run (%v) should be slower than plain (%v)", withXDR, plain)
	}
}

// Property: pack/unpack round-trips arbitrary float64 slices exactly
// (including NaN bit patterns via the bits representation, which quick
// won't generate; NaN is covered separately below).
func TestPackUnpackRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		b := &Buffer{}
		b.PackFloat64(vals, len(vals), 1)
		out := make([]float64, len(vals))
		b.UnpackFloat64(out, len(vals), 1)
		for i := range vals {
			if vals[i] != out[i] && !(math.IsNaN(vals[i]) && math.IsNaN(out[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackInt64RoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		b := &Buffer{}
		b.PackInt64(vals, len(vals), 1)
		out := make([]int64, len(vals))
		b.UnpackInt64(out, len(vals), 1)
		for i := range vals {
			if vals[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNaNRoundTrip(t *testing.T) {
	b := &Buffer{}
	b.PackOneFloat64(math.NaN())
	if v := b.UnpackOneFloat64(); !math.IsNaN(v) {
		t.Fatalf("NaN round-trip = %v", v)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	b := &Buffer{}
	b.PackBytes([]byte("hello world"))
	if got := string(b.UnpackBytes(11)); got != "hello world" {
		t.Fatalf("got %q", got)
	}
}

func TestBufferMetadata(t *testing.T) {
	eng, sys := newWorld(2)
	sys.Spawn(0, func(p *Proc) {
		b := p.InitSend()
		b.PackOneInt32(1)
		p.Send(1, 77)
	})
	sys.Spawn(1, func(p *Proc) {
		r := p.Recv(-1, -1)
		if r.Src() != 0 || r.Tag() != 77 {
			t.Errorf("src=%d tag=%d", r.Src(), r.Tag())
		}
		if len(r.data) != 9 { // 5-byte header + 4-byte int32
			t.Errorf("len = %d, want 9", len(r.data))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStrideValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for overrunning stride")
		}
	}()
	b := &Buffer{}
	b.PackInt32([]int32{1, 2, 3}, 3, 2) // needs index 4: overrun
}

// TestFIFOBetweenPair: PVM messages between a pair preserve send order.
func TestFIFOBetweenPair(t *testing.T) {
	eng, sys := newWorld(2)
	const k = 10
	sys.Spawn(0, func(p *Proc) {
		for i := 0; i < k; i++ {
			b := p.InitSend()
			b.PackOneInt32(int32(i))
			p.Send(1, 1)
		}
	})
	sys.Spawn(1, func(p *Proc) {
		for i := 0; i < k; i++ {
			if v := p.Recv(0, 1).UnpackOneInt32(); v != int32(i) {
				t.Fatalf("got %d, want %d", v, i)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestInitSendPresized pins the send-buffer presizing: after a message
// has been dispatched, the next InitSend returns a buffer whose capacity
// already covers a same-shaped message, so packing it never reallocates.
func TestInitSendPresized(t *testing.T) {
	eng, sys := newWorld(2)
	vals := make([]float64, 512)
	sys.Spawn(0, func(p *Proc) {
		for round := 0; round < 3; round++ {
			b := p.InitSend()
			if round > 0 {
				if got := cap(b.data); got < 5+8*len(vals) {
					t.Errorf("round %d: InitSend cap = %d, want >= %d", round, got, 5+8*len(vals))
				}
				before := &b.data[:1][0]
				b.PackFloat64(vals, len(vals), 1)
				if &b.data[0] != before {
					t.Errorf("round %d: pack reallocated a presized buffer", round)
				}
			} else {
				b.PackFloat64(vals, len(vals), 1)
			}
			p.Send(1, 1)
		}
	})
	sys.Spawn(1, func(p *Proc) {
		got := make([]float64, len(vals))
		for round := 0; round < 3; round++ {
			r := p.Recv(0, 1)
			r.UnpackFloat64(got, len(got), 1)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnExtraAtColocated pins the placement axis at the pvm layer: an
// extra process on node 0 exchanges loopback (uncounted) messages with
// the regular process there, and process-id addressing still works.
func TestSpawnExtraAtColocated(t *testing.T) {
	eng, sys := newWorld(2)
	sys.Spawn(0, func(p *Proc) {
		b := p.InitSend()
		b.PackOneInt32(10)
		p.Send(2, 1)
		r := p.Recv(2, 2) // master by process id, though it sits on node 0
		if got := r.UnpackOneInt32(); got != 11 {
			t.Errorf("reply = %d, want 11", got)
		}
	})
	sys.Spawn(1, func(p *Proc) {
		b := p.InitSend()
		b.PackOneInt32(20)
		p.Send(2, 1)
		r := p.Recv(2, 2)
		if got := r.UnpackOneInt32(); got != 21 {
			t.Errorf("reply = %d, want 21", got)
		}
	})
	id := sys.SpawnExtraAt("master", 0, func(p *Proc) {
		for i := 0; i < 2; i++ {
			r := p.Recv(-1, 1)
			v := r.UnpackOneInt32()
			dst := 0
			if v == 20 {
				dst = 1
			}
			b := p.InitSend()
			b.PackOneInt32(v + 1)
			p.Send(dst, 2)
		}
	})
	if id != 2 {
		t.Fatalf("extra process id = %d, want 2", id)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Only the slave-1 exchanges cross the wire: 2 of 4 messages.
	if got := sys.UserStats().Messages; got != 2 {
		t.Errorf("counted messages = %d, want 2 (master/slave-0 is loopback)", got)
	}
}
