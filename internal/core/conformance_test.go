package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// This file is the Backend conformance suite: a miniature Program
// exercised against every adapter.  Each backend must run the program's
// bodies, honor the scenario, produce deterministic results, and leave
// the App in a state its Check accepts.  The real applications get the
// same treatment across the full registry in internal/harness.

// miniOut is the mini program's output.
type miniOut int64

func (o miniOut) Check(par miniOut) error {
	if o != par {
		return fmt.Errorf("mini: output %d vs %d", par, o)
	}
	return nil
}

// miniProg sums per-processor contributions: shared array + barrier
// under TreadMarks, a gather to process 0 under PVM, an optional master
// that collects and acknowledges (for placement tests).
type miniProg struct {
	withMaster bool
}

// miniApp wraps a mini program as an App.
func miniApp(withMaster bool) App { return NewApp(miniProg{withMaster}) }

func (miniProg) Name() string    { return "mini" }
func (miniProg) Figure() int     { return 0 }
func (miniProg) Problem() string { return "conformance kernel" }

const miniProcsModeled = 4 // contributions are identical per proc, so any count agrees

const contribution = 7

func (miniProg) Seq(ctx *sim.Ctx) miniOut {
	ctx.Compute(time(1))
	return contribution
}

func time(ms int) sim.Time { return sim.Time(ms) * sim.Millisecond }

func (miniProg) TMK(sys *tmk.System) (func(*tmk.Proc), func() miniOut) {
	addr := sys.Malloc(8)
	var out miniOut
	return func(p *tmk.Proc) {
		p.Compute(time(1))
		if p.ID() == 0 {
			p.WriteI64(addr, contribution)
		}
		p.Barrier(0)
		if p.ID() == 0 {
			out = miniOut(p.ReadI64(addr))
		} else {
			_ = p.ReadI64(addr) // remote read: forces diff traffic
		}
	}, func() miniOut { return out }
}

func (m miniProg) PVM(sys *pvm.System) (body, master func(*pvm.Proc), out func() miniOut) {
	var total miniOut
	body = func(p *pvm.Proc) {
		p.Compute(time(1))
		if m.withMaster {
			// Report to the master and await the acknowledged total.
			b := p.InitSend()
			b.PackOneInt64(contribution)
			p.Send(p.N(), 1)
			r := p.Recv(p.N(), 2)
			if p.ID() == 0 {
				total = miniOut(r.UnpackOneInt64())
			}
			return
		}
		if p.ID() != 0 {
			b := p.InitSend()
			b.PackOneInt64(contribution)
			p.Send(0, 1)
			return
		}
		for src := 1; src < p.N(); src++ {
			p.Recv(src, 1)
		}
		total = contribution
	}
	if m.withMaster {
		master = func(p *pvm.Proc) {
			for i := 0; i < p.N(); i++ {
				r := p.Recv(-1, 1)
				_ = r.UnpackOneInt64() // identical contributions: ack the value
			}
			for i := 0; i < p.N(); i++ {
				b := p.InitSend()
				b.PackOneInt64(contribution)
				p.Send(i, 2)
			}
		}
	}
	return body, master, func() miniOut { return total }
}

func TestBackendNames(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range StandardBackends() {
		if b.Name() == "" {
			t.Fatal("backend with empty name")
		}
		if seen[b.Name()] {
			t.Fatalf("duplicate backend name %q", b.Name())
		}
		seen[b.Name()] = true
	}
}

func TestBaselineDetection(t *testing.T) {
	if !IsBaseline(Seq) {
		t.Error("Seq must be a baseline")
	}
	if IsBaseline(TMK) || IsBaseline(PVM) {
		t.Error("TMK/PVM must not be baselines")
	}
	v := Variant("seq-v", Seq, func(sc Scenario) Scenario { return sc })
	if !IsBaseline(v) {
		t.Error("a variant of a baseline is a baseline")
	}
	if IsBaseline(Variant("pvm-v", PVM, func(sc Scenario) Scenario { return sc })) {
		t.Error("a variant of PVM is not a baseline")
	}
}

// TestBackendConformance runs the miniature app under every adapter and
// checks the adapter contract: successful run, deterministic repeat,
// plausible accounting, and an output the app's Check accepts.
func TestBackendConformance(t *testing.T) {
	app := miniApp(false)
	if _, err := Seq.Run(app, Base(1)); err != nil {
		t.Fatalf("seq: %v", err)
	}
	for _, b := range []Backend{Seq, TMK, PVM} {
		sc := Base(miniProcsModeled)
		r1, err := b.Run(app, sc)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !IsBaseline(b) {
			if err := app.Check(); err != nil {
				t.Errorf("%s: %v", b.Name(), err)
			}
		}
		r2, err := b.Run(app, sc)
		if err != nil {
			t.Fatalf("%s rerun: %v", b.Name(), err)
		}
		if r1 != r2 {
			t.Errorf("%s: nondeterministic result:\n  %+v\n  %+v", b.Name(), r1, r2)
		}
		if r1.Time <= 0 {
			t.Errorf("%s: no modeled time", b.Name())
		}
		if IsBaseline(b) {
			if r1.Net.Messages != 0 {
				t.Errorf("seq counted traffic: %+v", r1.Net)
			}
		} else if r1.Net.Messages == 0 {
			t.Errorf("%s at %d procs sent no messages", b.Name(), sc.Procs)
		}
	}
}

// TestVariantScenarioOverride checks that a Variant's scenario rewrite
// reaches the run: XDR conversion costs CPU but moves no extra bytes.
func TestVariantScenarioOverride(t *testing.T) {
	app := miniApp(false)
	if _, err := Seq.Run(app, Base(1)); err != nil {
		t.Fatal(err)
	}
	plain, err := PVM.Run(app, Base(2))
	if err != nil {
		t.Fatal(err)
	}
	xdr := Variant("pvm-xdr-test", PVM, func(sc Scenario) Scenario {
		sc.XDRPerByte = 10 * sim.Microsecond
		return sc
	})
	conv, err := xdr.Run(app, Base(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
	if conv.Net != plain.Net {
		t.Errorf("xdr changed traffic: %+v vs %+v", conv.Net, plain.Net)
	}
	if conv.Time <= plain.Time {
		t.Errorf("xdr should cost time: %v <= %v", conv.Time, plain.Time)
	}
}

// TestMasterPlacement checks the PVM placement axis: co-locating the
// master with slave 0 turns their exchanges into unaccounted loopback.
func TestMasterPlacement(t *testing.T) {
	app := miniApp(true)
	if _, err := Seq.Run(app, Base(1)); err != nil {
		t.Fatal(err)
	}
	apart, err := PVM.Run(app, Base(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
	sc := Base(3)
	sc.Name = "colocated"
	sc.MasterColocated = true
	co, err := PVM.Run(app, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Check(); err != nil {
		t.Fatal(err)
	}
	// Each of the 3 slaves exchanges 2 messages with the master; slave
	// 0's pair becomes loopback when co-located.
	if want := apart.Net.Messages - 2; co.Net.Messages != want {
		t.Errorf("colocated messages = %d, want %d (apart %d)",
			co.Net.Messages, want, apart.Net.Messages)
	}
}

// TestRunsAs pins what each adapter reads: RunsAs sees through a
// Variant to the adapter that runs, projects the scenario onto the
// fields that adapter reads, and knows nothing of an outside backend;
// and a run under a scenario that differs only outside the projection
// is the same run.
func TestRunsAs(t *testing.T) {
	sc := Base(3)
	sc.DSM.PageSize = 1024
	sc.XDRPerByte = sim.Microsecond
	sc.MasterColocated = true
	for _, c := range []struct {
		b    Backend
		run  Backend
		want Config
	}{
		{Seq, Seq, Config{}},
		{TMK, TMK, Config{Procs: 3, Net: sc.Net, DSM: sc.DSM}},
		{PVM, PVM, Config{Procs: 3, Net: sc.Net, XDRPerByte: sc.XDRPerByte, MasterColocated: true}},
		{Variant("tmk-4p", TMK, func(sc Scenario) Scenario { sc.Procs = 4; return sc }), TMK, Config{Procs: 4, Net: sc.Net, DSM: sc.DSM}},
	} {
		run, cfg, ok := RunsAs(c.b, sc)
		if !ok || run != c.run || !reflect.DeepEqual(cfg, c.want) {
			t.Errorf("%s: RunsAs = %T, %+v, %v; want %T, %+v", c.b.Name(), run, cfg, ok, c.run, c.want)
		}
	}
	if run, _, ok := RunsAs(Variant("outside", outsideBackend{}, func(sc Scenario) Scenario { return sc }), sc); ok || run != nil {
		t.Errorf("RunsAs knows a backend outside core: %v, %v", run, ok)
	}

	app := miniApp(true)
	for _, b := range []Backend{TMK, PVM} {
		want, err := b.Run(app, Base(3))
		if err != nil {
			t.Fatal(err)
		}
		// Each adapter under the fields only the other one reads.
		other := Base(3)
		if b == TMK {
			other.XDRPerByte, other.MasterColocated = sim.Microsecond, true
		} else {
			other.DSM.PageSize = 1024
		}
		got, err := b.Run(app, other)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s read a field outside its projection:\n  %+v\n  %+v", b.Name(), got, want)
		}
	}
}

type outsideBackend struct{}

func (outsideBackend) Name() string                      { return "outside" }
func (outsideBackend) Run(App, Scenario) (Result, error) { return Result{}, nil }

// TestAppCheckContract pins the outputs NewApp's wrapper keeps: Check
// fails until the App has seen a sequential and a parallel run, and a
// Clone starts with neither.
func TestAppCheckContract(t *testing.T) {
	run := func(b Backend, app App, n int) {
		t.Helper()
		if _, err := b.Run(app, Base(n)); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
	}
	app := miniApp(false)
	if app.Check() == nil {
		t.Error("Check passed before any run")
	}
	run(Seq, app, 1)
	if app.Check() == nil {
		t.Error("Check passed after a Seq run alone")
	}
	run(TMK, app, 2)
	if err := app.Check(); err != nil {
		t.Errorf("Check after Seq and TMK: %v", err)
	}
	clone := app.Clone()
	if clone.Check() == nil {
		t.Error("a fresh Clone's Check passed")
	}
	run(PVM, clone, 2)
	if clone.Check() == nil {
		t.Error("a Clone's Check passed after a parallel run alone")
	}
	run(Seq, clone, 1)
	if err := clone.Check(); err != nil {
		t.Errorf("Clone's Check after PVM and Seq: %v", err)
	}
}
