package harness

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file renders []Record into the paper's artifacts.  The rendered
// strings are pinned by test against the pre-records implementation: the
// redesign changed where the numbers flow, not what they say.

// displayName maps backend names to the series labels the paper uses.
func displayName(backend string) string {
	switch backend {
	case "tmk":
		return "TreadMarks"
	case "pvm":
		return "PVM"
	}
	return backend
}

// RenderTable1 renders the sequential-times table from baseline records.
func RenderTable1(recs []Record) string {
	tbl := stats.Table{
		Title:  "Table 1  Sequential Time of Applications (modeled)",
		Header: []string{"Program", "Problem Size", "Time(sec)"},
	}
	for _, r := range recs {
		if r.Backend != "seq" {
			continue
		}
		tbl.AddRow(r.App, r.Problem, fmt.Sprintf("%.1f", r.Seconds))
	}
	return tbl.Render()
}

// RenderTable2 renders messages and kilobytes at 8 processors for both
// systems from base-scenario records.
func RenderTable2(recs []Record) string {
	tbl := stats.Table{
		Title: "Table 2  Messages and Data at 8 Processors",
		Header: []string{"Program", "TMK Messages", "TMK Kilobytes",
			"PVM Messages", "PVM Kilobytes"},
	}
	at8 := func(app, backend string) (Record, bool) {
		for _, r := range recs {
			if r.App == app && r.Backend == backend && r.Procs == 8 && r.Scenario == "base" {
				return r, true
			}
		}
		return Record{}, false
	}
	for _, app := range appOrder(recs) {
		tres, tok := at8(app, "tmk")
		pres, pok := at8(app, "pvm")
		if !tok || !pok {
			continue
		}
		tbl.AddRow(app,
			fmt.Sprintf("%d", tres.Messages), fmt.Sprintf("%.0f", tres.Kilobytes()),
			fmt.Sprintf("%d", pres.Messages), fmt.Sprintf("%.0f", pres.Kilobytes()))
	}
	return tbl.Render()
}

// appOrder lists the distinct app names in first-appearance order.
func appOrder(recs []Record) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs {
		if !seen[r.App] {
			seen[r.App] = true
			out = append(out, r.App)
		}
	}
	return out
}

// RenderFigure builds one speedup figure from records: the app's baseline
// record supplies the sequential time; every non-baseline backend present
// becomes a series over its base-scenario processor counts.
func RenderFigure(recs []Record, appName string) (stats.Figure, error) {
	var seq *Record
	perBackend := map[string][]Record{}
	var order []string
	figure := 0
	for i, r := range recs {
		if r.App != appName {
			continue
		}
		figure = r.Figure
		if r.Backend == "seq" {
			seq = &recs[i]
			continue
		}
		if r.Scenario != "base" {
			continue
		}
		if _, ok := perBackend[r.Backend]; !ok {
			order = append(order, r.Backend)
		}
		perBackend[r.Backend] = append(perBackend[r.Backend], r)
	}
	if seq == nil {
		return stats.Figure{}, fmt.Errorf("%s: no sequential baseline record", appName)
	}
	fig := stats.Figure{Title: fmt.Sprintf("Figure %d  %s", figure, appName)}
	for _, b := range order {
		rs := perBackend[b]
		sort.Slice(rs, func(i, j int) bool { return rs[i].Procs < rs[j].Procs })
		var xs []int
		var times []sim.Time
		for _, r := range rs {
			xs = append(xs, r.Procs)
			times = append(times, r.Time())
		}
		fig.Series = append(fig.Series, stats.Series{
			Name: displayName(b), X: xs, Y: stats.Speedup(seq.Time(), times),
		})
	}
	return fig, nil
}

// ---------------------------------------------------------------------
// The grid behind each artifact: the one definition the CLI runs and the
// tests render.

// Table1Grid is the grid behind Table 1: every app's sequential baseline.
func Table1Grid(apps []core.App) Grid {
	return Grid{Apps: apps, Backends: []core.Backend{core.Seq}}
}

// Table2Grid is the grid behind Table 2: both systems at 8 processors.
func Table2Grid(apps []core.App) Grid {
	return Grid{Apps: apps, Backends: []core.Backend{core.TMK, core.PVM}, Scenarios: BaseScenarios(8)}
}

// FiguresGrid is the grid behind the apps' speedup figures: the
// sequential baseline plus both systems at 1..maxProcs processors.
func FiguresGrid(apps []core.App, maxProcs int) Grid {
	var procs []int
	for n := 1; n <= maxProcs; n++ {
		procs = append(procs, n)
	}
	return Grid{Apps: apps, Backends: core.StandardBackends(), Scenarios: BaseScenarios(procs...)}
}
