// Package core is the experiment testbed: it wires a simulated cluster
// (engine + FDDI network) to either the TreadMarks DSM or the PVM
// message-passing library and runs an application on it, returning the
// modeled execution time and the traffic statistics the paper reports.
//
// An application is an App, implemented once per package under
// internal/apps, and there is one way to run it: a Backend — Seq, TMK or
// PVM, the paper's three measurement modes, or a Variant of one — under a
// Scenario that fully determines the run (experiment.go):
//
//	a := sor.NewApp(sor.Paper(false))
//	res, err := core.TMK.Run(a, core.Base(8))
//
// New configurations are declared as data; the application bodies never
// change.  Underneath, RunSeq, RunTMK and RunPVM run bare bodies on a
// fresh cluster: the sequential program with no communication library
// (Table 1), the TreadMarks version on n processors, and the PVM version
// on n processors, optionally with an extra co-located master process
// (the paper's TSP/QSORT arrangement).  The backends are built on them,
// as are microbenchmarks that need no App.
package core

import (
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vnet"
)

// Config selects cluster size, cost models, process placement and
// cost-model overrides.  The zero values of the override fields reproduce
// the paper's testbed exactly.
type Config struct {
	Procs int
	Net   vnet.Config
	DSM   tmk.Config

	// XDRPerByte, when positive, enables PVM external-data-representation
	// conversion at this per-byte CPU cost (the paper disables XDR:
	// identical machines).  Modeling a heterogeneous cluster is a
	// one-line scenario override.
	XDRPerByte sim.Time

	// MasterColocated places the app's extra PVM master process (if any)
	// on node 0, sharing the workstation with slave 0 as in the paper's
	// physical arrangement: master/slave-0 traffic crosses loopback and
	// is not counted as user messages.  The default (false) keeps the
	// seed behavior of a master on its own node, where every master/slave
	// exchange is a real message.  Messages carry the sender's process
	// id, so receive filters and Buffer.Src() distinguish a co-located
	// master from slave 0; placement affects cost and accounting only.
	// See pvm.System.SpawnExtraAt.
	MasterColocated bool
}

// Default returns the paper's testbed: n HP workstations on 100 Mbit/s
// FDDI with 4 KB pages.
func Default(n int) Config {
	return Config{Procs: n, Net: vnet.FDDI(), DSM: tmk.DefaultConfig()}
}

// Result is one run's measurements.
type Result struct {
	Time sim.Time   // modeled wall-clock of the slowest process
	Net  vnet.Stats // traffic in the system's own accounting

	// TreadMarks behavioral detail summed over the processors (zero for
	// PVM/sequential runs).
	tmk.Counters
}

// RunSeq executes the sequential program body on a single simulated
// workstation with no communication library.
func RunSeq(body func(ctx *sim.Ctx)) (Result, error) {
	eng := sim.NewEngine()
	eng.Spawn("seq", false, body)
	if err := eng.Run(); err != nil {
		return Result{}, err
	}
	return Result{Time: eng.MaxPrimaryClock()}, nil
}

// RunTMK executes the TreadMarks version: setup allocates and preloads
// shared memory, then body runs on every processor.
func RunTMK(cfg Config, setup func(sys *tmk.System), body func(p *tmk.Proc)) (Result, error) {
	eng := sim.NewEngine()
	net := vnet.New(cfg.Net)
	sys := tmk.NewSystem(eng, net, cfg.Procs, cfg.DSM)
	setup(sys)
	for i := 0; i < cfg.Procs; i++ {
		sys.Spawn(i, body)
	}
	if err := eng.Run(); err != nil {
		return Result{}, err
	}
	return Result{Time: eng.MaxPrimaryClock(), Net: sys.Stats(), Counters: sys.Counters()}, nil
}

// RunPVM executes the PVM version: setup (optional) configures the
// system and resets application run state, then body runs on each of the
// n regular processes; if master is non-nil it runs as an additional
// process (id n), as in the paper's master/slave TSP and QSORT.
func RunPVM(cfg Config, setup func(sys *pvm.System), body func(p *pvm.Proc), master func(p *pvm.Proc)) (Result, error) {
	eng := sim.NewEngine()
	net := vnet.New(cfg.Net)
	sys := pvm.New(eng, net, cfg.Procs)
	if cfg.XDRPerByte > 0 {
		sys.EnableXDR(cfg.XDRPerByte)
	}
	if setup != nil {
		setup(sys)
	}
	for i := 0; i < cfg.Procs; i++ {
		sys.Spawn(i, body)
	}
	if master != nil {
		node := -1 // fresh node of its own (the seed arrangement)
		if cfg.MasterColocated {
			node = 0
		}
		sys.SpawnExtraAt("master", node, master)
	}
	if err := eng.Run(); err != nil {
		return Result{}, err
	}
	return Result{Time: eng.MaxPrimaryClock(), Net: sys.UserStats()}, nil
}
