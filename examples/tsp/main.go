// TSP under both paradigms: solves a traveling salesman instance with
// branch and bound, comparing the shared-structure TreadMarks version
// (tour pool, priority queue, and stack all migrate between processors)
// against the PVM master/slave version (one process owns everything).
//
// Run with:
//
//	go run ./examples/tsp [-cities n]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps/tsp"
	"repro/internal/core"
)

func main() {
	cities := flag.Int("cities", 14, "number of cities")
	flag.Parse()

	cfg := tsp.Paper()
	cfg.Cities = *cities
	cfg.Threshold = *cities - 4 // the solver gets all but 4-city prefixes

	a := tsp.NewApp(cfg)
	run := func(b core.Backend, n int) core.Result {
		res, err := b.Run(a, core.Base(n))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	seq := run(core.Seq, 1)
	fmt.Printf("TSP: %s, sequential %.2fs\n\n", a.Problem(), seq.Time.Seconds())

	fmt.Printf("%6s  %28s  %28s\n", "procs", "TreadMarks (sp/msgs/faults)", "PVM master-slave (sp/msgs)")
	for _, n := range []int{1, 2, 4, 8} {
		tres := run(core.TMK, n)
		if err := a.Check(); err != nil {
			log.Fatalf("tmk n=%d: %v", n, err)
		}
		pres := run(core.PVM, n)
		if err := a.Check(); err != nil {
			log.Fatalf("pvm n=%d: %v", n, err)
		}
		fmt.Printf("%6d  %10.2f %8d %8d  %13.2f %8d   lock-wait %4.0f%%\n", n,
			seq.Time.Seconds()/tres.Time.Seconds(), tres.Net.Messages, tres.Faults,
			seq.Time.Seconds()/pres.Time.Seconds(), pres.Net.Messages,
			100*tres.LockWait.Seconds()/(tres.Time.Seconds()*float64(n)))
	}
	fmt.Println("\nAll versions find the same optimum; the TreadMarks version")
	fmt.Println("pays page faults and diff accumulation every time the shared")
	fmt.Println("tour structures migrate to another processor.")
}
