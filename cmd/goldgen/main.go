// Command goldgen dumps the modeled metrics (Time, Messages, Bytes) of
// every registered experiment under both systems at 2/4/8 processors.
// Its output is a stable golden reference: capture it before and after an
// engine or protocol change and diff — any difference means the change
// altered modeled physics, not just implementation.  The pinned values in
// internal/harness/golden_test.go are regenerated from this output:
//
//	go run ./cmd/goldgen -format go
//
// emits the Go table literal to paste over the `golden` map, so
// regeneration after an intentional model change is mechanical.  The
// paper-scale pins in internal/harness/paperscale_test.go come from
//
//	go run ./cmd/goldgen -format paper
//
// which ignores -scale and runs the plan that test runs: every app's
// sequential baseline at scale 1.0, plus TSP under tmk and pvm at 8
// processors.  The lossy-network pins in internal/harness/fault_test.go
// come from
//
//	go run ./cmd/goldgen -format faults
//
// which also ignores -scale: six apps under tmk and tmk-sc over every
// loss, duplication, reordering and partition scenario at 4 processors,
// scale 0.05, with the fault layer's own counters beside the metrics.
//
// goldgen is a thin view over the harness grid: it runs
// apps x {tmk,pvm} x base{2,4,8} and reformats the records.
package main

import (
	"flag"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/harness"
)

var goldenProcs = []int{2, 4, 8}

// paperProcs is the processor count of the paper-scale TSP pins.
const paperProcs = 8

// faultSelection and faultScale are the plan TestFaultGolden runs: the
// lock-, barrier- and diff-heavy apps over every fault axis, so each
// at-least-once role (lock manager, grantor, barrier manager, diff
// server) retransmits and suppresses duplicates.
var faultSelection = harness.Selection{
	Apps:      []string{"sor-zero", "is-small", "qsort", "tsp", "water-288", "ep"},
	Backends:  []string{"tmk", "tmk-sc"},
	Scenarios: []string{"loss", "dup", "reorder", "partition"},
	NProcs:    []int{4},
}

const faultScale = 0.05

func main() {
	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper scale)")
	format := flag.String("format", "text", `output format: "text" (diffable lines), "go" (golden_test.go table literal), "paper" (paperscale_test.go table literals, always at scale 1.0) or "faults" (fault_test.go table literal, always at scale 0.05)`)
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "grid worker pool width (1 = serial); output is identical at any width")
	flag.Parse()

	switch *format {
	case "paper":
		emitPaper(*workers)
		return
	case "faults":
		emitFaults(*workers)
		return
	}
	apps := harness.Apps(*scale)
	recs, err := harness.Grid{
		Apps:      apps,
		Backends:  []core.Backend{core.TMK, core.PVM},
		Scenarios: harness.BaseScenarios(goldenProcs...),
		Workers:   *workers,
	}.Run()
	if err != nil {
		panic(err)
	}
	at := func(app, sys string, n int) harness.Record {
		for _, r := range recs {
			if r.App == app && r.Backend == sys && r.Procs == n {
				return r
			}
		}
		panic(fmt.Sprintf("goldgen: missing record %s/%s n=%d", app, sys, n))
	}

	switch *format {
	case "text":
		for _, app := range apps {
			for _, n := range goldenProcs {
				for _, sys := range []string{"tmk", "pvm"} {
					r := at(app.Name(), sys, n)
					fmt.Printf("%s %s n=%d time=%d msgs=%d bytes=%d\n",
						r.App, r.Backend, n, r.TimeNS, r.Messages, r.Bytes)
				}
			}
		}
	case "go":
		fmt.Printf("var golden = map[string]map[string][3]metric{\n")
		for _, app := range apps {
			fmt.Printf("\t%q: {\n", app.Name())
			for _, sys := range []string{"tmk", "pvm"} {
				fmt.Printf("\t\t%q: {\n", sys)
				for _, n := range goldenProcs {
					r := at(app.Name(), sys, n)
					fmt.Printf("\t\t\t{time: %d, msgs: %d, bytes: %d}, // n=%d\n",
						r.TimeNS, r.Messages, r.Bytes, n)
				}
				fmt.Printf("\t\t},\n")
			}
			fmt.Printf("\t},\n")
		}
		fmt.Printf("}\n")
	default:
		panic(fmt.Sprintf("goldgen: unknown format %q", *format))
	}
}

// emitPaper prints the tables TestPaperScaleGolden pins: what the
// reduced-scale grid above cannot see, because the search and sort apps
// swap in smaller instances below scale 1.0.
func emitPaper(workers int) {
	apps := harness.Apps(1.0)
	seq, err := harness.Grid{Apps: apps, Backends: []core.Backend{core.Seq}, Workers: workers}.Run()
	if err != nil {
		panic(err)
	}
	tsp, err := harness.Grid{
		Apps:      []core.App{harness.Find(apps, "TSP")},
		Backends:  []core.Backend{core.TMK, core.PVM},
		Scenarios: harness.BaseScenarios(paperProcs),
		Workers:   workers,
	}.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("var paperSeq = map[string]int64{\n")
	for _, r := range seq {
		fmt.Printf("\t%q: %d,\n", r.App, r.TimeNS)
	}
	fmt.Printf("}\n\nvar paperTSP = map[string]metric{\n")
	for _, r := range tsp {
		fmt.Printf("\t%q: {time: %d, msgs: %d, bytes: %d},\n", r.Backend, r.TimeNS, r.Messages, r.Bytes)
	}
	fmt.Printf("}\n")
}

// emitFaults prints the table TestFaultGolden pins, one entry per
// app/backend/scenario cell.
func emitFaults(workers int) {
	g, err := faultSelection.Resolve(faultScale)
	if err != nil {
		panic(err)
	}
	g.Workers = workers
	recs, err := g.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("var faultGolden = map[string]faultMetric{\n")
	for _, r := range recs {
		fmt.Printf("\t%q: {time: %d, msgs: %d, bytes: %d, dropped: %d, retrans: %d, timeouts: %d},\n",
			r.App+"/"+r.Backend+"/"+r.Scenario, r.TimeNS, r.Messages, r.Bytes, r.Dropped, r.Retrans, r.Timeouts)
	}
	fmt.Printf("}\n")
}
