// Package harness is the experiment surface of the reproduction: a
// registry of the paper's twelve applications and a data-driven grid
// runner that crosses them with backends and scenarios.
//
// # Architecture
//
// Three core types (internal/core) make configurations declarative:
//
//   - core.App — one application/input combination: a core.Program
//     written once by its package under internal/apps, with no run state
//     of its own, wrapped by core.NewApp, which keeps the outputs Check
//     compares.  The registry (Apps) returns all twelve in the paper's
//     figure order, configured at a workload scale.
//   - core.Backend — adapts an App to one system.  The standard adapters
//     are core.Seq, core.TMK and core.PVM; Backends() lists them with
//     the derived variants such as PVM-with-XDR.  A new backend is one
//     value.
//   - core.Scenario — one point in configuration space: processor count,
//     network cost model, DSM cost model, PVM placement and cost-model
//     overrides.  scenarios.go declares the stock axes, from the base
//     testbed through the page-size, network, placement and fault sweeps,
//     in one table (scenarioSets) that the CLI, the serve API and the
//     rendered artifacts all select from by set and scenario name.
//
// A Grid is the cross product apps × backends × scenarios; Grid.Run
// executes it and emits one structured Record per run.  Runs are
// independent engines, each on its own clone of its app — clones share
// the app's Program, which no run writes, and each keeps its own outputs
// (TestClonesShareNoRunState) — so nothing a run writes is shared
// between them and Grid.Workers sets how many run at once (jobs
// handed out by index, records collected by index: output byte-
// identical at every width).  ForEach is that pool, and the serve cold
// path runs on it too.  Everything else — the rendered Table 1/Table 2,
// the speedup figures (Table1Grid, Table2Grid and FiguresGrid define
// their grids), the pinned model output under testdata/pins,
// cmd/msvdsm's JSON/CSV output and the ablation studies — consumes the
// same records.
//
// A new result column is a field of Record, with its json tag, and its
// line in recordOf: the JSON and CSV writers derive everything else.  A
// new scenario axis is an entry in scenarioSets: its name, the processor
// counts it supports and its points, each a scenario name and the config
// field it sets.
package harness

import (
	"sort"
	"strings"

	"repro/internal/apps/barnes"
	"repro/internal/apps/ep"
	"repro/internal/apps/fft"
	"repro/internal/apps/ilink"
	"repro/internal/apps/is"
	"repro/internal/apps/qsort"
	"repro/internal/apps/sor"
	"repro/internal/apps/tsp"
	"repro/internal/apps/water"
	"repro/internal/core"
)

// Apps returns the registry in the paper's figure order (Figures 1-12).
// scale < 1 shrinks the workloads (quick mode); 1.0 is paper scale.
func Apps(scale float64) []core.App {
	var apps []core.App
	for _, pkg := range []func(float64) []core.App{
		ep.Apps, sor.Apps, is.Apps, tsp.Apps, qsort.Apps,
		water.Apps, barnes.Apps, fft.Apps, ilink.Apps,
	} {
		apps = append(apps, pkg(scale)...)
	}
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].Figure() < apps[j].Figure() })
	return apps
}

// BigApps returns the large-P registry: the same twelve experiments
// re-sized for the bigp scenario family, where the interesting axis is
// processor count (64, 256), not problem scale.  Workloads keep enough
// per-processor work to exercise the protocols at P=256 while a full
// grid stays CI-sized.
func BigApps(scale float64) []core.App {
	var apps []core.App
	for _, pkg := range []func(float64) []core.App{
		ep.BigApps, sor.BigApps, is.BigApps, tsp.BigApps, qsort.BigApps,
		water.BigApps, barnes.BigApps, fft.BigApps, ilink.BigApps,
	} {
		apps = append(apps, pkg(scale)...)
	}
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].Figure() < apps[j].Figure() })
	return apps
}

// Find returns the app whose name matches (case-insensitive,
// punctuation-insensitive), or nil.
func Find(apps []core.App, name string) core.App {
	canon := func(s string) string {
		s = strings.ToLower(s)
		s = strings.NewReplacer("-", "", "_", "", " ", "").Replace(s)
		return s
	}
	for _, a := range apps {
		if canon(a.Name()) == canon(name) {
			return a
		}
	}
	return nil
}

// Names lists the registered experiment names.
func Names(apps []core.App) []string {
	var out []string
	for _, a := range apps {
		out = append(out, a.Name())
	}
	sort.Strings(out)
	return out
}
