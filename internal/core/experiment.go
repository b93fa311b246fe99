// Scenario-first experiment surface.
//
// Three first-class types turn the testbed into a declarative grid:
//
//   - A Scenario is one point in configuration space — processor count,
//     network cost model, DSM cost model, PVM process placement, and
//     cost-model overrides.  One Scenario value fully determines a run.
//   - An App is one application/input combination, registered once by its
//     package: the sequential body, the TreadMarks setup + body, the PVM
//     setup + body (+ optional master), and an output check.
//   - A Backend adapts an App to one system.  The three standard adapters
//     (Seq, TMK, PVM) mirror the paper's measurement modes; Variant
//     derives ablations (e.g. PVM with XDR conversion) as data, so a new
//     backend is one value — never a nine-application sweep.
//
// The harness crosses apps × backends × scenarios into structured result
// records; see internal/harness.
package core

import (
	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Scenario names one fully specified run configuration: Config (cluster
// size, cost models, placement, overrides) plus an identifier that result
// records carry, so sweeps stay distinguishable after the fact.
type Scenario struct {
	Name string // short id, e.g. "base", "page=1024", "eth10"
	Config
}

// Base returns the paper's testbed configuration as a named scenario.
func Base(n int) Scenario {
	return Scenario{Name: "base", Config: Default(n)}
}

// Scaled shrinks a workload parameter by the quick-mode scale factor,
// bounded below by min: the common rule the app packages' Apps(scale)
// constructors apply.  scale 1.0 is paper scale.
func Scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		return min
	}
	return v
}

// App is one application/input combination.  Each package under
// internal/apps implements it once; backends supply the system the bodies
// run on.  Implementations carry their outputs between calls: a backend
// run records the parallel output, Seq records the reference, and Check
// compares the two, so correctness verification needs no extra plumbing.
type App interface {
	Name() string    // registry name, e.g. "SOR-Zero"
	Figure() int     // paper figure number (0 for custom apps)
	Problem() string // problem-size description (Table 1 column)

	// Seq is the sequential program body (no communication library).
	Seq(ctx *sim.Ctx)

	// SetupTMK allocates and preloads shared memory and resets the app's
	// run state; TMK is the per-processor body.
	SetupTMK(sys *tmk.System)
	TMK(p *tmk.Proc)

	// SetupPVM resets the app's run state before the processes spawn;
	// PVM is the per-process body.  Master returns the body of the extra
	// master process, or nil when the app has none (master/slave apps —
	// TSP, QSORT — follow the paper's arrangement).
	SetupPVM(sys *pvm.System)
	PVM(p *pvm.Proc)
	Master() func(*pvm.Proc)

	// Check compares the most recent parallel output against the most
	// recent sequential output; run the Seq backend first.
	Check() error
}

// Backend adapts an App to one system.  Run executes the app under the
// scenario and returns the modeled measurements.
type Backend interface {
	Name() string
	Run(app App, sc Scenario) (Result, error)
}

// Cloneable is implemented by Apps whose runs can be isolated: Clone
// returns a fresh instance with the same configuration and no run state,
// so two clones may run on concurrent goroutines.  Runs are
// deterministic functions of (configuration, scenario), so a clone's
// records are identical to the original's.  The harness grid uses
// clones for its worker pool; apps that do not implement Cloneable are
// still correct — their runs are serialized per instance.
type Cloneable interface {
	App
	Clone() App
}

// The standard adapters, mirroring the paper's three measurement modes.
var (
	Seq Backend = seqBackend{}
	TMK Backend = tmkBackend{}
	PVM Backend = pvmBackend{}
)

// StandardBackends returns the three paper adapters in reporting order.
func StandardBackends() []Backend { return []Backend{Seq, TMK, PVM} }

// baseliner marks backends whose result does not depend on the scenario;
// a grid runs them once per app instead of once per scenario.
type baseliner interface{ baseline() bool }

// IsBaseline reports whether b is scenario-independent (the sequential
// adapter, or a variant of it).
func IsBaseline(b Backend) bool {
	bb, ok := b.(baseliner)
	return ok && bb.baseline()
}

type seqBackend struct{}

func (seqBackend) Name() string   { return "seq" }
func (seqBackend) baseline() bool { return true }

func (seqBackend) Run(app App, sc Scenario) (Result, error) {
	return RunSeq(app.Seq)
}

type tmkBackend struct{}

func (tmkBackend) Name() string { return "tmk" }

func (tmkBackend) Run(app App, sc Scenario) (Result, error) {
	return RunTMK(sc.Config, app.SetupTMK, app.TMK)
}

type pvmBackend struct{}

func (pvmBackend) Name() string { return "pvm" }

func (pvmBackend) Run(app App, sc Scenario) (Result, error) {
	return RunPVM(sc.Config, app.SetupPVM, app.PVM, app.Master())
}

// variant is a backend derived from another by rewriting the scenario.
type variant struct {
	name   string
	base   Backend
	mutate func(Scenario) Scenario
}

// Variant derives a backend that transforms the scenario before running.
// An ablation — PVM with XDR conversion enabled, TreadMarks on small
// pages — is one Variant value registered with the harness; no
// application code changes.
func Variant(name string, base Backend, mutate func(Scenario) Scenario) Backend {
	return variant{name: name, base: base, mutate: mutate}
}

func (v variant) Name() string { return v.name }

func (v variant) Run(app App, sc Scenario) (Result, error) {
	return v.base.Run(app, v.mutate(sc))
}

func (v variant) baseline() bool { return IsBaseline(v.base) }

// Supports reports why backend b cannot run scenario sc, or nil, without
// running anything: a variant asks its base about the rewritten
// scenario, the TreadMarks adapter asks tmk.Config.Validate (tree
// barriers, for one, refuse a lossy network).  Callers that take
// backend × scenario combinations from outside the program check here,
// because Run panics on a configuration the system refuses to build.
func Supports(b Backend, sc Scenario) error {
	switch b := b.(type) {
	case variant:
		return Supports(b.base, b.mutate(sc))
	case tmkBackend:
		return sc.DSM.Validate(sc.Net)
	}
	return nil
}
