package harness

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// This file declares the stock scenario axes.  A scenario is data: adding
// a sweep here changes no application code and no backend code — the
// grid crosses whatever it is given.

// A scenarioSet is one named axis: the processor counts it supports and
// its points, each a scenario name and the config field it sets on the
// paper's testbed.
type scenarioSet struct {
	name string
	// procs lists the processor counts the set supports and defaults to
	// when the caller names none; nil means any count, with the
	// testbed's 8 as the default.
	procs  []int
	points []point
}

// A point is one scenario of a set: its name and the change it makes to
// core.Base; a nil set is the testbed itself.
type point struct {
	name string
	set  func(c *core.Config)
}

// sweep is the points of a one-field axis: one per value, named by
// format applied to the value.
func sweep[T any](format string, vals []T, set func(c *core.Config, v T)) []point {
	out := make([]point, len(vals))
	for i, v := range vals {
		out[i] = point{fmt.Sprintf(format, v), func(c *core.Config) { set(c, v) }}
	}
	return out
}

// scenarioSets is the single registry of named scenario axes: the CLI
// lists its names and ScenarioSet resolves against it, so a new axis is
// one entry here.
var scenarioSets = []scenarioSet{
	// The paper's testbed.
	{name: "base", points: []point{{"base", nil}}},
	// The DSM page size (granularity of false sharing); the testbed
	// uses 4 KB.
	{name: "page", points: sweep("page=%d", []int{1024, 2048, 4096, 8192, 16384},
		func(c *core.Config, v int) { c.DSM.PageSize = v })},
	// The transport MTU (fragmentation of multi-page diff responses).
	{name: "mtu", points: sweep("mtu=%d", []int{4096, 16384, 65536},
		func(c *core.Config, v int) { c.Net.MTU = v })},
	// The paper's 100 Mbit/s FDDI against a 10 Mbit/s Ethernet: the
	// link-bandwidth sensitivity of the DSM-versus-message-passing gap.
	{name: "bw", points: []point{
		{"fddi", nil},
		{"eth10", func(c *core.Config) { c.Net = vnet.Ethernet10() }},
	}},
	// The one-way wire latency in µs, from the paper's FDDI campus value
	// (60) through a metro-area link (2000) to WAN-class delays (40000).
	// Latency hits the two systems asymmetrically: a TreadMarks page
	// fault pays the round trip once per missing diff source, PVM once
	// per application-level exchange.
	{name: "lat", points: sweep("lat=%dus", []sim.Time{60, 500, 2000, 10000, 40000},
		func(c *core.Config, us sim.Time) { c.Net.Latency = us * sim.Microsecond })},
	// The service-side cost in µs of handling a protocol request
	// (tmk.Config.HandlerOverhead; the testbed's is 30): the SIGIO
	// interrupt-and-dispatch cost the paper identifies as a fixed
	// per-message overhead of the DSM's request/reply structure.  PVM
	// has no service daemon, so the sweep isolates TreadMarks.
	{name: "handler", points: sweep("handler=%dus", []sim.Time{0, 30, 100, 300, 1000},
		func(c *core.Config, us sim.Time) { c.DSM.HandlerOverhead = us * sim.Microsecond })},
	// The PVM master (of master/slave apps) on node 0 with slave 0, as
	// in the paper's physical arrangement: their traffic crosses
	// loopback and disappears from the message counts.
	{name: "colocated", points: []point{{"colocated", func(c *core.Config) { c.MasterColocated = true }}}},
	// Synchronization-manager placement, the large-P question of whether
	// processor 0 serializes.  The testbed spreads lock managers
	// round-robin and centralizes barriers on processor 0; mgr=proc0
	// pulls the lock managers onto processor 0 too, mgr=spread spreads
	// the barrier managers as well.
	{name: "placement", points: []point{
		{"mgr=proc0", func(c *core.Config) { c.DSM.CentralLockMgr = true }},
		{"mgr=spread", func(c *core.Config) { c.DSM.SpreadBarrierMgr = true }},
	}},
	// Seeded message loss.  TreadMarks (UDP) recovers through the tmk
	// at-least-once RPC layer, PVM (TCP) through the transport's
	// emulated ARQ: which protocol degrades more gracefully.
	{name: "loss", points: sweep("loss=%g", []float64{0.01, 0.05, 0.20},
		func(c *core.Config, r float64) { c.Net.Faults.Loss = r })},
	// Seeded duplication: duplicate suppression with nothing lost.
	{name: "dup", points: sweep("dup=%g", []float64{0.01, 0.05, 0.20},
		func(c *core.Config, r float64) { c.Net.Faults.Dup = r })},
	// A fraction of datagrams held back plus uniform delivery jitter:
	// sequence-number filtering without loss.
	{name: "reorder", points: sweep("reorder=%g", []float64{0.05, 0.20},
		func(c *core.Config, r float64) {
			c.Net.Faults.Reorder = r
			c.Net.Faults.ReorderDelay = 1 * sim.Millisecond
			c.Net.Faults.Jitter = 250 * sim.Microsecond
		})},
	// The last node cut off from the rest over an early window that
	// heals mid-run: datagrams into the partition drop (and are
	// retransmitted until the heal), stream deliveries stall.  Runs
	// shorter than the window start never notice.
	{name: "partition", points: []point{{"partition", func(c *core.Config) {
		if c.Procs > 1 {
			c.Net.Faults.Partitions = []vnet.Partition{{
				Start: 5 * sim.Millisecond,
				Heal:  25 * sim.Millisecond,
				Nodes: []int{c.Procs - 1},
			}}
		}
	}}}},
	// The CPU costs the network model charges on the last node, scaled:
	// the paper-era straggler workstation.  Not lossy, so no reliability
	// machinery arms; only the load balance shifts.
	{name: "slow", points: sweep("slow=%gx", []float64{2, 4},
		func(c *core.Config, f float64) {
			if c.Procs > 1 {
				c.Net.Faults.Slowdown = make([]float64, c.Procs)
				for i := range c.Net.Faults.Slowdown {
					c.Net.Faults.Slowdown[i] = 1
				}
				c.Net.Faults.Slowdown[c.Procs-1] = f
			}
		})},
	// The scale-out cell: the testbed network at processor counts the
	// paper's hardware never reached.
	{name: "bigp", procs: []int{16, 64, 256}, points: []point{{"bigp", nil}}},
}

// at builds the set's scenarios at n processors: the testbed, named and
// changed by each point.  A point that makes the network lossy draws
// its faults from a seed of its own (faultSeed), so every (scenario,
// nprocs) cell sees its own reproducible fault pattern.
func (s scenarioSet) at(n int) []core.Scenario {
	out := make([]core.Scenario, len(s.points))
	for i, p := range s.points {
		sc := core.Base(n)
		sc.Name = p.name
		if p.set != nil {
			p.set(&sc.Config)
		}
		if sc.Net.Faults.Lossy() {
			sc.Net.Faults.Seed = faultSeed(sc.Name, n)
		}
		out[i] = sc
	}
	return out
}

// faultSeed derives a stable fault-injection seed from a scenario's
// coordinates (FNV-1a over the name, mixed with the processor count).
func faultSeed(name string, nprocs int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(nprocs)
	h *= 1099511628211
	return h
}

// ScenarioSets lists the registered scenario-axis names.
func ScenarioSets() []string {
	var out []string
	for _, s := range scenarioSets {
		out = append(out, s.name)
	}
	return out
}

// ScenarioSet resolves a named scenario axis at the given processor
// counts — the CLI's scenario-selection surface.  Sweep axes expand at
// each count; nil procs selects the set's defaults.  Sets that declare
// supported counts reject others by listing the valid choices, rather
// than expanding into a grid nothing was validated at.
func ScenarioSet(name string, procs []int) ([]core.Scenario, error) {
	i := slices.IndexFunc(scenarioSets, func(s scenarioSet) bool { return s.name == name })
	if i < 0 {
		return nil, fmt.Errorf("unknown scenario set %q (have %v)", name, ScenarioSets())
	}
	s := scenarioSets[i]
	if procs == nil {
		procs = s.procs
		if procs == nil {
			procs = []int{8}
		}
	}
	var out []core.Scenario
	for _, n := range procs {
		if s.procs != nil && !slices.Contains(s.procs, n) {
			return nil, fmt.Errorf("scenario set %q does not run at %d processors (valid: %v)",
				name, n, s.procs)
		}
		out = append(out, s.at(n)...)
	}
	return out, nil
}

// scenario returns the scenario of a set named name at n processors.
// Callers name registered scenarios with constants, so a miss is a
// programming error and panics.
func scenario(set, name string, n int) core.Scenario {
	scs, err := ScenarioSet(set, []int{n})
	if err == nil {
		if i := slices.IndexFunc(scs, func(sc core.Scenario) bool { return sc.Name == name }); i >= 0 {
			return scs[i]
		}
		err = fmt.Errorf("scenario set %q has no scenario %q", set, name)
	}
	panic(err)
}
