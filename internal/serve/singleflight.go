package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/harness"
)

// flightGroup collapses concurrent duplicate computations: while one
// caller is computing the record for a key (the cold path's keys are
// run keys), every other caller of the same key blocks and shares the
// one result instead of burning CPU on an identical deterministic run.
// Completed flights are forgotten — durable memoization is the Store's
// job; the group only deduplicates work that is literally in flight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	waiters atomic.Int32 // callers blocked on done (observability + tests)
	rec     harness.Record
	err     error
}

// do invokes fn once among concurrent callers of the same key and hands
// everyone the same (record, error).  shared reports whether this
// caller got another flight's result.  Callers that arrive after a
// flight completed start a new one — pair do with a store re-check
// inside fn to keep "compute exactly once" across that boundary.
func (g *flightGroup) do(key string, fn func() (harness.Record, error)) (rec harness.Record, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall{}
	}
	if c, ok := g.m[key]; ok {
		c.waiters.Add(1)
		g.mu.Unlock()
		<-c.done
		return c.rec, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.rec, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.rec, c.err, false
}
