package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestComputeAdvancesClock(t *testing.T) {
	e := NewEngine()
	var final Time
	e.Spawn("p0", false, func(c *Ctx) {
		c.Compute(3 * Millisecond)
		c.Compute(2 * Millisecond)
		final = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if final != 5*Millisecond {
		t.Fatalf("clock = %v, want 5ms", final)
	}
	if e.MaxPrimaryClock() != 5*Millisecond {
		t.Fatalf("MaxPrimaryClock = %v", e.MaxPrimaryClock())
	}
}

func TestNegativeComputeIgnored(t *testing.T) {
	e := NewEngine()
	e.Spawn("p0", false, func(c *Ctx) {
		c.Compute(-Second)
		if c.Now() != 0 {
			t.Errorf("clock moved backwards: %v", c.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLowestClockFirst verifies the min-clock scheduling discipline: events
// recorded by procs interleave in virtual-time order.
func TestLowestClockFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	// Yield first: the engine resumes procs in min-clock order at
	// scheduling points, so appends after a Yield are virtual-time ordered.
	record := func(c *Ctx, tag string) {
		c.Yield()
		order = append(order, tag)
	}
	e.Spawn("slow", false, func(c *Ctx) {
		c.Compute(10 * Millisecond)
		record(c, "slow@10")
		c.Compute(10 * Millisecond)
		record(c, "slow@20")
	})
	e.Spawn("fast", false, func(c *Ctx) {
		c.Compute(1 * Millisecond)
		record(c, "fast@1")
		c.Compute(1 * Millisecond)
		record(c, "fast@2")
		c.Compute(14 * Millisecond)
		record(c, "fast@16")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"fast@1", "fast@2", "slow@10", "fast@16", "slow@20"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWaitWakesAtEventTime verifies a blocked proc's clock jumps to the
// wake time supplied by the condition.
func TestWaitWakesAtEventTime(t *testing.T) {
	e := NewEngine()
	var src Source
	var arrival Time
	ready := false
	e.Spawn("producer", false, func(c *Ctx) {
		c.Compute(7 * Millisecond)
		arrival = c.Now() + 500*Microsecond
		ready = true
		src.Notify()
	})
	var woke Time
	e.Spawn("consumer", false, func(c *Ctx) {
		c.WaitOn(&src, "event", func() (Time, bool) {
			if !ready {
				return 0, false
			}
			return arrival, true
		})
		woke = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 7*Millisecond+500*Microsecond {
		t.Fatalf("woke at %v, want 7.5ms", woke)
	}
}

// TestWaitDoesNotRewindClock: if the waiter's clock is already past the
// wake time, the clock must not move backwards.
func TestWaitDoesNotRewindClock(t *testing.T) {
	e := NewEngine()
	var src Source
	e.Spawn("p0", false, func(c *Ctx) {
		c.Compute(10 * Millisecond)
		c.WaitOn(&src, "past-event", func() (Time, bool) { return 1 * Millisecond, true })
		if c.Now() != 10*Millisecond {
			t.Errorf("clock = %v, want 10ms", c.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	var src Source
	e.Spawn("stuck", false, func(c *Ctx) {
		c.WaitOn(&src, "never", func() (Time, bool) { return 0, false })
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "never") {
		t.Fatalf("deadlock dump should name the blocked condition: %v", err)
	}
}

// TestDaemonAbandoned: a run with a forever-blocked daemon finishes once
// primaries are done.
func TestDaemonAbandoned(t *testing.T) {
	e := NewEngine()
	var src Source
	e.Spawn("daemon", true, func(c *Ctx) {
		c.WaitOn(&src, "request", func() (Time, bool) { return 0, false })
		t.Error("daemon should never wake")
	})
	e.Spawn("worker", false, func(c *Ctx) {
		c.Compute(Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", false, func(c *Ctx) {
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

// TestPanicUnblocksOthers: a panic in one proc must not hang the run even
// when other procs are blocked forever.
func TestPanicUnblocksOthers(t *testing.T) {
	e := NewEngine()
	var src Source
	e.Spawn("stuck", false, func(c *Ctx) {
		c.WaitOn(&src, "never", func() (Time, bool) { return 0, false })
	})
	e.Spawn("bad", false, func(c *Ctx) {
		c.Compute(Millisecond)
		panic("late boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "late boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

// TestDeterminism runs an exchange pattern twice and compares traces.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var trace []Time
		n := 4
		box := make(map[int][]Time) // naive mailbox: proc -> arrival times
		srcs := make([]Source, n)
		for i := 0; i < n; i++ {
			id := i
			e.Spawn("p", false, func(c *Ctx) {
				for round := 0; round < 3; round++ {
					c.Compute(Time(id+1) * Millisecond)
					dst := (id + 1) % n
					box[dst] = append(box[dst], c.Now()+100*Microsecond)
					srcs[dst].Notify()
					c.WaitOn(&srcs[id], "msg", func() (Time, bool) {
						if len(box[id]) == 0 {
							return 0, false
						}
						min := box[id][0]
						for _, a := range box[id] {
							if a < min {
								min = a
							}
						}
						return min, true
					})
					// Consume the earliest message.
					mi := 0
					for j, a := range box[id] {
						if a < box[id][mi] {
							mi = j
						}
					}
					box[id] = append(box[id][:mi], box[id][mi+1:]...)
					trace = append(trace, c.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("p0", false, func(c *Ctx) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from Spawn after Run")
		}
	}()
	e.Spawn("late", false, func(c *Ctx) {})
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	e.Spawn("p0", false, func(c *Ctx) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Fatalf("String = %q", got)
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds = %v", s)
	}
}

// TestRandomWorkloadsConvergeProperty: random compute/message workloads
// terminate, never deadlock, and give every proc a final clock at least
// as large as its total charged compute.
func TestRandomWorkloadsConvergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		rounds := 1 + rng.Intn(4)
		// mailboxes[i] counts tokens sent to proc i (arrival at sender
		// clock + fixed delay).
		type msg struct{ at Time }
		boxes := make([][]msg, n)
		srcs := make([]Source, n)
		charged := make([]Time, n)
		finals := make([]Time, n)
		// Precompute per-round compute amounts (deterministic per proc).
		work := make([][]Time, n)
		for i := range work {
			work[i] = make([]Time, rounds)
			for r := range work[i] {
				work[i][r] = Time(rng.Intn(5000)) * Microsecond
			}
		}
		e := NewEngine()
		for i := 0; i < n; i++ {
			id := i
			e.Spawn("p", false, func(c *Ctx) {
				for r := 0; r < rounds; r++ {
					c.Compute(work[id][r])
					charged[id] += work[id][r]
					dst := (id + r + 1) % n
					boxes[dst] = append(boxes[dst], msg{c.Now() + 100*Microsecond})
					srcs[dst].Notify()
					if dst == id {
						continue
					}
					// Wait for any token addressed to us this round.
					c.WaitOn(&srcs[id], "token", func() (Time, bool) {
						if len(boxes[id]) == 0 {
							return 0, false
						}
						return boxes[id][0].at, true
					})
					boxes[id] = boxes[id][1:]
				}
				finals[id] = c.Now()
			})
		}
		if err := e.Run(); err != nil {
			// Random token patterns may legitimately deadlock (a proc can
			// wait for a token that was consumed); that's a pass for the
			// detector, not a liveness bug.
			return strings.Contains(err.Error(), "deadlock")
		}
		for i := 0; i < n; i++ {
			if finals[i] < charged[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// runEnginesInParallel builds n independent engines and runs them on
// concurrent goroutines, the way the grid pool runs cells, returning each
// engine and its Run error.  Under -race this also shows the engine keeps
// no state shared across instances.
func runEnginesInParallel(n int, build func(i int, e *Engine)) ([]*Engine, []error) {
	engines := make([]*Engine, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range engines {
		engines[i] = NewEngine()
		build(i, engines[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = engines[i].Run()
		}(i)
	}
	wg.Wait()
	return engines, errs
}

// TestParallelDeadlockDetected: engines running in parallel each detect
// their own deadlock, and each dump names only that engine's condition.
func TestParallelDeadlockDetected(t *testing.T) {
	const n = 4
	_, errs := runEnginesInParallel(n, func(i int, e *Engine) {
		var src Source
		e.Spawn("stuck", false, func(c *Ctx) {
			c.WaitOn(&src, fmt.Sprintf("never-%d", i), func() (Time, bool) { return 0, false })
		})
		e.Spawn("busy", false, func(c *Ctx) {
			for k := 0; k < 100; k++ {
				c.Compute(Microsecond)
				c.Yield()
			}
		})
	})
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("engine %d: err = %v, want deadlock", i, err)
		}
		for j := 0; j < n; j++ {
			if named := strings.Contains(err.Error(), fmt.Sprintf("never-%d", j)); named != (i == j) {
				t.Fatalf("engine %d: dump names never-%d = %v: %v", i, j, named, err)
			}
		}
	}
}

// TestParallelPanicPropagates: a panic raised while other procs are
// blocked or mid-run fails only its own engine; engines running beside it
// in parallel finish cleanly.
func TestParallelPanicPropagates(t *testing.T) {
	const n = 4
	_, errs := runEnginesInParallel(n, func(i int, e *Engine) {
		var src Source
		if i%2 == 0 {
			e.Spawn("stuck", false, func(c *Ctx) {
				c.WaitOn(&src, "never", func() (Time, bool) { return 0, false })
			})
		}
		e.Spawn("busy", false, func(c *Ctx) {
			for k := 0; k < 1000; k++ {
				c.Compute(Microsecond)
				c.Yield()
			}
		})
		if i%2 == 0 {
			e.Spawn("bad", false, func(c *Ctx) {
				c.Compute(Millisecond / 2)
				panic(fmt.Sprintf("late boom %d", i))
			})
		}
	})
	for i, err := range errs {
		if i%2 != 0 {
			if err != nil {
				t.Fatalf("engine %d: err = %v, want clean run", i, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("late boom %d", i)) {
			t.Fatalf("engine %d: err = %v, want its own panic", i, err)
		}
	}
}

// TestParallelDaemonAbandoned: in engines running in parallel, a daemon
// still blocked when the last primary returns is abandoned cleanly, after
// serving the one request it was sent.
func TestParallelDaemonAbandoned(t *testing.T) {
	const n = 4
	served := make([]int, n)
	engines, errs := runEnginesInParallel(n, func(i int, e *Engine) {
		var src Source
		var box []Time
		e.Spawn("daemon", true, func(c *Ctx) {
			for {
				c.WaitOn(&src, "request", func() (Time, bool) {
					if len(box) == 0 {
						return 0, false
					}
					return box[0], true
				})
				box = box[1:]
				served[i]++
			}
		})
		e.Spawn("worker", false, func(c *Ctx) {
			c.Compute(Millisecond)
			box = append(box, c.Now()+Microsecond)
			src.Notify()
			c.Compute(Millisecond)
			c.Yield() // lets the daemon, blocked until 1ms+1us, run first
		})
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if got := engines[i].MaxPrimaryClock(); got != 2*Millisecond {
			t.Errorf("engine %d: MaxPrimaryClock = %v, want 2ms", i, got)
		}
		if served[i] != 1 {
			t.Errorf("engine %d: daemon served %d requests, want 1", i, served[i])
		}
	}
}

// TestSplitMix64KnownAnswers pins SplitMix64 to the splitmix64 generator
// seeded with 0, whose state advances by the golden gamma before each
// mix: its first three outputs.  Every app input and every vnet fault
// draw goes through this one function, so a change to it would move
// every pin at once; this names the cause.
func TestSplitMix64KnownAnswers(t *testing.T) {
	const gamma = 0x9E3779B97F4A7C15
	for k, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := SplitMix64(uint64(k) * gamma); got != want {
			t.Errorf("SplitMix64(%d*gamma) = %#x, want %#x", k, got, want)
		}
	}
}
