package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/apps/sor"
	"repro/internal/core"
)

// The shape tests verify the paper's qualitative claims end to end on
// reduced-scale workloads.  Detailed per-application shape checks live in
// each application package; these cover the registry plumbing, the grid
// runner, and the cross-application orderings the paper's summary calls
// out.

func TestRegistryComplete(t *testing.T) {
	apps := Apps(0.01)
	if len(apps) != 12 {
		t.Fatalf("got %d experiments, want 12 (figures 1-12)", len(apps))
	}
	seen := map[int]bool{}
	for _, a := range apps {
		if a.Figure() < 1 || a.Figure() > 12 || seen[a.Figure()] {
			t.Fatalf("bad figure number %d for %s", a.Figure(), a.Name())
		}
		seen[a.Figure()] = true
		if a.Problem() == "" {
			t.Fatalf("%s: empty problem description", a.Name())
		}
	}
}

func TestFind(t *testing.T) {
	apps := Apps(0.01)
	for _, name := range []string{"sor-zero", "SOR Zero", "sorzero", "IS-Large", "3d-fft", "Water-288"} {
		if Find(apps, name) == nil {
			t.Errorf("Find(%q) = nil", name)
		}
	}
	if Find(apps, "nosuch") != nil {
		t.Error("Find of unknown name should be nil")
	}
}

func TestTable1Renders(t *testing.T) {
	recs, err := Table1Grid(Apps(0.01)).Run()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable1(recs)
	for _, want := range []string{"EP", "SOR-Zero", "ILINK", "Time(sec)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all apps at 8 procs")
	}
	recs, err := Table2Grid(Apps(0.01)).Run()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable2(recs)
	for _, want := range []string{"TMK Messages", "PVM Kilobytes", "QSORT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigureDataShape(t *testing.T) {
	apps := Apps(0.01)
	recs, err := FiguresGrid([]core.App{Find(apps, "EP")}, 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	fig, err := RenderFigure(recs, "EP")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 4 || len(s.Y) != 4 {
			t.Fatalf("series %s has %d points, want 4", s.Name, len(s.X))
		}
		// Speedup at 1 processor is ~1 (small overheads only).
		if s.Y[0] < 0.7 || s.Y[0] > 1.05 {
			t.Errorf("%s speedup at 1 proc = %.2f, want ~1", s.Name, s.Y[0])
		}
	}
}

// TestSummaryOrderings verifies the abstract's grouping at 8 processors
// on mid-scale workloads: the within-10-15%% group (EP, Water-1728,
// ILINK, SOR) versus the 2x group (IS-Large).
func TestSummaryOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale sweep")
	}
	apps := Apps(0.25)
	gap := func(name string) float64 {
		app := Find(apps, name)
		if app == nil {
			t.Fatalf("missing %s", name)
		}
		tres, err := core.TMK.Run(app, core.Base(8))
		if err != nil {
			t.Fatalf("%s tmk: %v", name, err)
		}
		pres, err := core.PVM.Run(app, core.Base(8))
		if err != nil {
			t.Fatalf("%s pvm: %v", name, err)
		}
		return tres.Time.Seconds() / pres.Time.Seconds()
	}
	close := []string{"EP", "SOR-Nonzero", "ILINK"}
	for _, name := range close {
		if g := gap(name); g > 1.30 {
			t.Errorf("%s gap %.2f: paper groups it within ~10-15%%", name, g)
		}
	}
	if g := gap("IS-Large"); g < 1.5 {
		t.Errorf("IS-Large gap %.2f: paper reports ~2x", g)
	}
}

func TestAblationsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several 8-proc configurations")
	}
	out, err := Ablations(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"page size", "MTU", "barrier", "remote lock acquire"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

// Smaller pages mean more messages for the same data (more faults, more
// diff requests) — the granularity trade-off behind false sharing.
func TestPageSizeAblationMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("8-proc sweeps")
	}
	cfg := sor.Paper(false)
	cfg.M = 128
	cfg.Sweeps = 10
	recs, err := Grid{
		Apps:      []core.App{sor.NewApp(cfg)},
		Backends:  []core.Backend{core.TMK},
		Scenarios: PageSizeScenarios(8, 1024, 4096),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Messages <= recs[1].Messages {
		t.Fatalf("1KB pages sent %d msgs, 4KB %d: want more with smaller pages",
			recs[0].Messages, recs[1].Messages)
	}
}

// TestGridRecordsJSONRoundTrip pins the structured output surface: grid
// records survive a JSON encode/decode and a CSV encode with consistent
// geometry — the contract cmd/msvdsm's -format json|csv rides on.
func TestGridRecordsJSONRoundTrip(t *testing.T) {
	apps := Apps(0.01)
	recs, err := Grid{
		Apps:      []core.App{Find(apps, "EP")},
		Backends:  core.StandardBackends(),
		Scenarios: BaseScenarios(2),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // seq baseline once + tmk + pvm
		t.Fatalf("got %d records, want 3", len(recs))
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("records do not decode: %v", err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d changed in round trip:\n  out %+v\n  in  %+v", i, recs[i], back[i])
		}
	}
	buf.Reset()
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(rows) != len(recs)+1 {
		t.Fatalf("CSV rows = %d, want %d", len(rows), len(recs)+1)
	}
	for i, row := range rows {
		if len(row) != len(csvHeader) {
			t.Fatalf("CSV row %d has %d fields, want %d", i, len(row), len(csvHeader))
		}
	}
}

// TestExtensibilityEndToEnd is the redesign's acceptance check: a new
// scenario axis (page-size and bandwidth sweeps) and a derived backend
// variant (pvm-xdr) run through the same grid with zero edits inside
// internal/apps — and the variant's cost shows up in the records.
func TestExtensibilityEndToEnd(t *testing.T) {
	apps := Apps(0.01)
	scenarios := append(PageSizeScenarios(2, 1024, 4096), BandwidthScenarios(2)...)
	xdr, err := FindBackend("pvm-xdr")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Grid{
		Apps:      []core.App{Find(apps, "SOR-Nonzero")},
		Backends:  []core.Backend{core.TMK, core.PVM, xdr},
		Scenarios: scenarios,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(scenarios); len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	byKey := func(backend, scenario string) Record {
		for _, r := range recs {
			if r.Backend == backend && r.Scenario == scenario {
				return r
			}
		}
		t.Fatalf("no record for %s/%s", backend, scenario)
		return Record{}
	}
	// XDR conversion costs CPU: same traffic, more time than plain PVM.
	plain := byKey("pvm", "page=4096")
	conv := byKey("pvm-xdr", "page=4096")
	if conv.Messages != plain.Messages || conv.Bytes != plain.Bytes {
		t.Errorf("xdr changed traffic: %+v vs %+v", conv, plain)
	}
	if conv.TimeNS <= plain.TimeNS {
		t.Errorf("xdr should cost time: %d <= %d", conv.TimeNS, plain.TimeNS)
	}
	// The slower link slows TreadMarks down.
	if fddi, eth := byKey("tmk", "fddi"), byKey("tmk", "eth10"); eth.TimeNS <= fddi.TimeNS {
		t.Errorf("eth10 should be slower than fddi: %d <= %d", eth.TimeNS, fddi.TimeNS)
	}
}

// TestAppBackendConformance runs every registered app under every
// registered backend on a tiny workload and checks its output against
// the app's own sequential run — the cross-product correctness net the
// App/Backend split makes possible.
func TestAppBackendConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full app x backend cross product")
	}
	for _, app := range Apps(0.01) {
		if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
			t.Fatalf("%s seq: %v", app.Name(), err)
		}
		for _, b := range Backends() {
			if core.IsBaseline(b) {
				continue
			}
			if _, err := b.Run(app, core.Base(2)); err != nil {
				t.Fatalf("%s/%s: %v", app.Name(), b.Name(), err)
			}
			if err := app.Check(); err != nil {
				t.Errorf("%s/%s output check: %v", app.Name(), b.Name(), err)
			}
		}
	}
}

// TestTreeBarrierConformance runs every app under the combining-tree
// variants across processor counts from the degenerate two-node tree
// (root plus one leaf) up through a multi-level radix-2 tree at 64 —
// every structural case of the arrival/departure protocol — checking
// each output against the app's own sequential run.
func TestTreeBarrierConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full app x procs cross product")
	}
	for _, nprocs := range []int{2, 4, 8, 64} {
		for _, app := range Apps(0.01) {
			if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
				t.Fatalf("%s seq: %v", app.Name(), err)
			}
			for _, b := range []core.Backend{TMKTree, TMKSCTree} {
				if _, err := b.Run(app, core.Base(nprocs)); err != nil {
					t.Fatalf("%s/%s procs=%d: %v", app.Name(), b.Name(), nprocs, err)
				}
				if err := app.Check(); err != nil {
					t.Errorf("%s/%s procs=%d output check: %v", app.Name(), b.Name(), nprocs, err)
				}
			}
		}
	}
}

// TestBigAppsMirrorApps pins the bigp registry's shape to the paper
// registry's: same app names in the same figure order, so `grid -apps`
// selection works identically in both families.  (Caught a real bug:
// the IS bucket-range clamp ran before the small/large name inference,
// collapsing IS-Large into a second IS-Small entry.)
func TestBigAppsMirrorApps(t *testing.T) {
	paper, big := Apps(1.0), BigApps(1.0)
	if len(big) != len(paper) {
		t.Fatalf("BigApps has %d entries, Apps has %d", len(big), len(paper))
	}
	for i, app := range paper {
		if big[i].Name() != app.Name() {
			t.Errorf("entry %d: BigApps name %q, Apps name %q", i, big[i].Name(), app.Name())
		}
		if big[i].Figure() != app.Figure() {
			t.Errorf("entry %d (%s): BigApps figure %d, Apps figure %d",
				i, app.Name(), big[i].Figure(), app.Figure())
		}
	}
}

// TestPlacementConformance runs every app under both manager-placement
// scenarios (fully centralized on proc 0, barrier managers spread),
// checking outputs against the sequential run: placement must move
// traffic, never results.
func TestPlacementConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full app x placement cross product")
	}
	for _, sc := range PlacementScenarios(4) {
		for _, app := range Apps(0.01) {
			if _, err := core.Seq.Run(app, core.Base(1)); err != nil {
				t.Fatalf("%s seq: %v", app.Name(), err)
			}
			if _, err := core.TMK.Run(app, sc); err != nil {
				t.Fatalf("%s/%s: %v", app.Name(), sc.Name, err)
			}
			if err := app.Check(); err != nil {
				t.Errorf("%s/%s output check: %v", app.Name(), sc.Name, err)
			}
		}
	}
}
