package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestSameInstantBatchDrain pins the run-queue commit order at one
// virtual instant.  Five procs arm at the same time T; the scheduler
// must pop the smallest id from the heap and drain the rest into the
// run queue, committing them back-to-back in ascending id order.  The
// first proc's turn also arms a *smaller*-id proc at the same T (a late
// same-instant arrival, via Notify): it lands in the heap after the
// drain, and the head-vs-heap compare must schedule it before the
// higher-id procs already queued.  Expected order each round:
// p1 (heap pop), p0 (late arrival beats queued p2), p2..p5 (queue).
func TestSameInstantBatchDrain(t *testing.T) {
	const rounds = 3
	e := NewEngine()
	var src Source
	round := 0
	var at Time
	var trace []string
	e.Spawn("p0", false, func(c *Ctx) {
		for seen := 0; seen < rounds; seen++ {
			c.WaitOn(&src, "round", func() (Time, bool) {
				if round <= seen {
					return 0, false
				}
				return at, true
			})
			trace = append(trace, fmt.Sprintf("p0@%d", c.Now()))
		}
	})
	for i := 1; i <= 5; i++ {
		id := i
		e.Spawn(fmt.Sprintf("p%d", id), false, func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				c.Compute(Millisecond)
				c.Yield() // scheduling point: the batch forms at the new clock
				if id == 1 {
					round++
					at = c.Now()
					src.Notify()
				}
				trace = append(trace, fmt.Sprintf("p%d@%d", id, c.Now()))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var want []string
	for r := 1; r <= rounds; r++ {
		now := Time(r) * Millisecond
		for _, id := range []int{1, 0, 2, 3, 4, 5} {
			want = append(want, fmt.Sprintf("p%d@%d", id, now))
		}
	}
	if len(trace) != len(want) {
		t.Fatalf("trace length %d, want %d\ngot %v", len(trace), len(want), trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("commit order diverges at %d: got %q, want %q\ntrace: %v", i, trace[i], want[i], trace)
		}
	}
}

// TestStableWithdrawnFailsRun checks the Stable contract's enforcement.
// The waiter's source is deliberately mis-marked Stable: another proc can
// withdraw the condition.  The waiter and the withdrawer arm at the same
// instant, so the run queue commits the waiter early, behind the
// withdrawer; when the waiter's turn comes its condition no longer holds,
// and the re-verify at the turn must fail the run rather than resume a
// proc whose wake-up was taken back.
func TestStableWithdrawnFailsRun(t *testing.T) {
	e := NewEngine()
	var src Source
	src.Stable = true // wrong: p1 withdraws what satisfied the waiter
	avail := false
	e.Spawn("p0", false, func(c *Ctx) {
		avail = true
		src.Notify()
	})
	e.Spawn("p1", false, func(c *Ctx) {
		c.Compute(Millisecond)
		c.Yield()
		avail = false // runs first at 1ms: p2 is already committed
	})
	e.Spawn("p2", false, func(c *Ctx) {
		c.WaitOn(&src, "avail", func() (Time, bool) { return Millisecond, avail })
		t.Error("waiter resumed after its condition was withdrawn")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "stable condition withdrawn") {
		t.Fatalf("err = %v, want stable condition withdrawn", err)
	}
}

// TestWaiterIndexSurvivesExit is a regression test for waiter-list
// maintenance: three procs register on one source, the middle one wakes
// and exits, and a later notify must still reach both survivors through
// the index.  A removal bug that drops or strands the wrong waiter
// shows up as a deadlock; a bug that lets removal perturb commit order
// shows up in the wake sequence (same-instant wakes stay in id order no
// matter how the index was compacted).
func TestWaiterIndexSurvivesExit(t *testing.T) {
	e := NewEngine()
	var src Source
	stage := 0
	var at Time
	var woke []string
	waiter := func(name string, need int) {
		e.Spawn(name, false, func(c *Ctx) {
			c.WaitOn(&src, name, func() (Time, bool) {
				if stage < need {
					return 0, false
				}
				return at, true
			})
			woke = append(woke, name)
		})
	}
	waiter("w0", 2)
	waiter("w1", 1) // middle registrant: wakes first, then exits
	waiter("w2", 2)
	e.Spawn("driver", false, func(c *Ctx) {
		c.Compute(Millisecond)
		c.Yield()
		stage, at = 1, c.Now()
		src.Notify() // wakes only w1
		c.Compute(Millisecond)
		c.Yield()
		stage, at = 2, c.Now()
		src.Notify() // must reach w0 and w2 despite w1's removal
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1", "w0", "w2"}
	if len(woke) != len(want) {
		t.Fatalf("woke %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("wake order %v, want %v", woke, want)
		}
	}
}
