package core

import (
	"fmt"

	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Output is what a Program computes.  Check, called on the sequential
// output, reports how a parallel run's output par differs from it.
type Output[O any] interface {
	Check(par O) error
}

// Program is one application/input combination: its configuration and
// its three bodies, one per measurement mode.  A Program writes none of
// its own fields during a run.  What a run allocates — shared-memory
// addresses, the collectors its output is assembled from — is made by
// the run's setup and closed over by its bodies, so one Program serves
// any number of runs, concurrent ones included.
type Program[O Output[O]] interface {
	Name() string    // registry name, e.g. "SOR-Zero"
	Figure() int     // paper figure number (0 for custom apps)
	Problem() string // problem-size description (Table 1 column)

	// Seq is the sequential program (no communication library); it
	// returns its output.
	Seq(ctx *sim.Ctx) O

	// TMK allocates and preloads shared memory for one run and returns
	// the per-processor body and the run's output, read once the run is
	// over.
	TMK(sys *tmk.System) (body func(*tmk.Proc), out func() O)

	// PVM prepares one run and returns the per-process body, the body of
	// the extra master process or nil when the app has none (master/
	// slave apps — TSP, QSORT — follow the paper's arrangement), and the
	// run's output.
	PVM(sys *pvm.System) (body, master func(*pvm.Proc), out func() O)
}

// NewApp wraps p as an App, which keeps the outputs Check compares.
func NewApp[O Output[O]](p Program[O]) App { return &app[O]{Program: p} }

// app is a Program with the latest sequential output and the latest
// parallel run's out.  It is the only run state an App carries.
type app[O Output[O]] struct {
	Program[O]
	seqOut O
	hasSeq bool
	parOut func() O
}

func (a *app[O]) Clone() App { return &app[O]{Program: a.Program} }

func (a *app[O]) Check() error {
	if !a.hasSeq || a.parOut == nil {
		return fmt.Errorf("%s: Check needs a sequential and a parallel run", a.Name())
	}
	return a.seqOut.Check(a.parOut())
}

func (a *app[O]) runSeq(ctx *sim.Ctx) { a.seqOut, a.hasSeq = a.Seq(ctx), true }

func (a *app[O]) setupTMK(sys *tmk.System) func(*tmk.Proc) {
	body, out := a.TMK(sys)
	a.parOut = out
	return body
}

func (a *app[O]) setupPVM(sys *pvm.System) (body, master func(*pvm.Proc)) {
	body, master, a.parOut = a.PVM(sys)
	return body, master
}
