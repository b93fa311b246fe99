package harness

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// faultScale keeps the fault-conformance workloads tiny: correctness
// under loss is the point, not the modeled numbers.
const faultScale = 0.01

// faultBackends is the reliability surface under test: the TreadMarks
// RPC layer (lazy and eager invalidate variants exercise different
// request/reply traffic) and PVM's stream transport.
func faultBackends() []core.Backend {
	return []core.Backend{core.TMK, TMKEager, core.PVM}
}

// checkApp runs one backend on one fault scenario and verifies the
// app's own output check — the end-to-end proof that every message the
// fault layer killed was recovered.
func checkApp(t *testing.T, app core.App, b core.Backend, sc core.Scenario) {
	t.Helper()
	if _, err := b.Run(app, sc); err != nil {
		t.Fatalf("%s/%s/%s n=%d: %v", app.Name(), b.Name(), sc.Name, sc.Procs, err)
	}
	if err := app.Check(); err != nil {
		t.Errorf("%s/%s/%s n=%d output check: %v", app.Name(), b.Name(), sc.Name, sc.Procs, err)
	}
}

// TestFaultConformance runs every registered app under every reliability
// backend at 5% seeded message loss across the paper's processor counts:
// all runs must complete and produce output identical to the app's own
// sequential run.
func TestFaultConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full app x backend x procs cross product under loss")
	}
	for _, app := range Apps(faultScale) {
		if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
			t.Fatalf("%s seq: %v", app.Name(), err)
		}
		for _, b := range faultBackends() {
			for _, n := range []int{2, 4, 8} {
				checkApp(t, app, b, LossScenarios(n, 0.05)[0])
			}
		}
	}
}

// TestFaultRateSweep covers the rest of the fault axes — light and heavy
// loss, duplication, reordering, a healing partition — on a representative
// app subset (one barrier-heavy, one lock-heavy, one master/slave).
func TestFaultRateSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-axis sweep")
	}
	const n = 4
	scenarios := []core.Scenario{
		LossScenarios(n, 0.01)[0],
		LossScenarios(n, 0.20)[0],
		DupScenarios(n, 0.05)[0],
		ReorderScenarios(n, 0.05)[0],
		PartitionScenarios(n)[0],
	}
	for _, name := range []string{"SOR-Zero", "IS-Small", "QSORT"} {
		app := Find(Apps(faultScale), name)
		if app == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
			t.Fatalf("%s seq: %v", app.Name(), err)
		}
		for _, b := range faultBackends() {
			for _, sc := range scenarios {
				checkApp(t, app, b, sc)
			}
		}
	}
}

// TestFaultSmoke is the -short slice of the conformance net: one
// barrier-heavy and one master/slave app at 5% loss and a partition.
func TestFaultSmoke(t *testing.T) {
	for _, name := range []string{"SOR-Zero", "QSORT"} {
		app := Find(Apps(faultScale), name)
		if app == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
			t.Fatalf("%s seq: %v", app.Name(), err)
		}
		for _, b := range faultBackends() {
			checkApp(t, app, b, LossScenarios(4, 0.05)[0])
			checkApp(t, app, b, PartitionScenarios(4)[0])
		}
	}
}

// TestFaultCausalAdmission pins the cell that once broke the
// transitive closure of interval timestamps: under eager invalidation
// and heavy loss, a write notice can outrun the loss of another
// writer's causally-earlier notice, and admitting it early poisons the
// next interval's timestamp (minimalCover's dominance argument then
// picks servers that cannot cover every missing diff).  Causal
// admission in admitRecord buffers such notices; this run panicked
// before that check existed.
func TestFaultCausalAdmission(t *testing.T) {
	app := Find(Apps(0.05), "Water-1728")
	if app == nil {
		t.Fatal("experiment Water-1728 not registered")
	}
	if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
		t.Fatalf("seq: %v", err)
	}
	checkApp(t, app, TMKEager, LossScenarios(8, 0.20)[0])
}

// TestFaultGoldenDeterminism pins one fault scenario and requires the
// grid worker pool to reproduce the serial records byte for byte — the
// fault layer's determinism contract holds however jobs are scheduled,
// recovery traffic included.
func TestFaultGoldenDeterminism(t *testing.T) {
	apps := []core.App{}
	for _, name := range []string{"SOR-Zero", "IS-Small", "QSORT"} {
		app := Find(Apps(faultScale), name)
		if app == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		apps = append(apps, app)
	}
	mk := func(workers int) Grid {
		scs := append(LossScenarios(2, 0.05), LossScenarios(4, 0.05)...)
		scs = append(scs, PartitionScenarios(4)...)
		return Grid{
			Apps:      apps,
			Backends:  []core.Backend{core.TMK, core.PVM},
			Scenarios: scs,
			Workers:   workers,
		}
	}
	want, err := mk(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	var sawRecovery bool
	for _, r := range want {
		if r.Dropped > 0 && r.Retrans > 0 {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Fatal("pinned fault grid produced no drop/retransmit activity")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	got, err := mk(workers).Run()
	if err != nil {
		t.Fatalf("grid-workers: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("grid-workers: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("grid-workers record %d:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
