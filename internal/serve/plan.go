package serve

import (
	"strconv"
	"sync"
)

// plan is everything about a selection that does not depend on the
// store: the spec hashes of its jobs in enumeration order, and the
// /v1/spec document.  Both are pure functions of the selection, the
// workload scale, the registries and harness.EngineVersion; the last
// two are constants of the process, so a plan is never invalidated.
type plan struct {
	hashes []string
	spec   []byte
}

// maxPlanHashes bounds the plan cache by the spec hashes it holds across
// all plans (a job costs about 300 bytes: its hash and its /v1/spec
// row).  A plan larger than the bound is not kept; a plan that would
// overflow it empties the cache first — the selections still in use
// come back at one resolve each.
const maxPlanHashes = 1 << 15

type planCache struct {
	mu           sync.Mutex
	byKey        map[string]*plan
	hashes       int // sum of len(p.hashes) over byKey
	hits, misses int64
}

// PlanStats is the plan cache's share of /v1/stats.
type PlanStats struct {
	PlanHits    int64 `json:"plan_hits"`
	PlanMisses  int64 `json:"plan_misses"`
	PlanEntries int   `json:"plan_entries"`
}

func (c *planCache) get(key string) *plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.byKey[key]
	if p != nil {
		c.hits++
	} else {
		c.misses++
	}
	return p
}

func (c *planCache) put(key string, p *plan) {
	if len(p.hashes) > maxPlanHashes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.byKey[key]; old != nil {
		c.hashes -= len(old.hashes) // a concurrent miss of the same selection got here first
	}
	if c.byKey == nil || c.hashes+len(p.hashes) > maxPlanHashes {
		c.byKey, c.hashes = map[string]*plan{}, 0
	}
	c.byKey[key] = p
	c.hashes += len(p.hashes)
}

func (c *planCache) stats() PlanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanStats{PlanHits: c.hits, PlanMisses: c.misses, PlanEntries: len(c.byKey)}
}

// planKey renders a parsed selection and its effective scale as the
// plan-cache key.  Every name is length-prefixed, so no choice of names
// (a POST body may carry any string) makes two selections share a key.
// Selections that differ only in spelling ("ep", "EP") get a plan each,
// with the same hashes.
func planKey(req gridRequest, scale float64) string {
	b := make([]byte, 0, 128)
	for _, names := range [...][]string{req.Apps, req.Backends, req.Scenarios} {
		for _, name := range names {
			b = strconv.AppendInt(b, int64(len(name)), 10)
			b = append(append(b, ':'), name...)
		}
		b = append(b, ';')
	}
	for _, n := range req.NProcs {
		b = append(strconv.AppendInt(b, int64(n), 10), ',')
	}
	b = append(b, ';')
	return string(strconv.AppendFloat(b, scale, 'g', -1, 64))
}
