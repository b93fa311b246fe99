// SOR side by side: runs red-black successive over-relaxation under both
// paradigms at 1..8 processors and prints the speedups, message counts,
// and data volumes — a miniature of the paper's Figure 2/3 plus Table 2
// rows, demonstrating the 5x message ratio and the SOR-Zero diff effect.
//
// Run with:
//
//	go run ./examples/sor
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/sor"
	"repro/internal/core"
)

func main() {
	for _, zero := range []bool{true, false} {
		cfg := sor.Small(zero)
		cfg.M = 512
		cfg.Sweeps = 10
		a := sor.NewApp(cfg)
		run := func(b core.Backend, n int) core.Result {
			res, err := b.Run(a, core.Base(n))
			if err != nil {
				log.Fatal(err)
			}
			return res
		}
		seq := run(core.Seq, 1)
		fmt.Printf("%s (%dx%d, %d sweeps): sequential %.2fs\n",
			a.Name(), cfg.M, cfg.N, cfg.Sweeps, seq.Time.Seconds())
		fmt.Printf("%6s  %22s  %22s\n", "procs", "TreadMarks (sp/msgs/KB)", "PVM (sp/msgs/KB)")
		for _, n := range []int{1, 2, 4, 8} {
			tres := run(core.TMK, n)
			pres := run(core.PVM, n)
			if err := a.Check(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%6d  %7.2f %6d %7.0f  %7.2f %6d %7.0f\n", n,
				seq.Time.Seconds()/tres.Time.Seconds(), tres.Net.Messages, tres.Net.Kilobytes(),
				seq.Time.Seconds()/pres.Time.Seconds(), pres.Net.Messages, pres.Net.Kilobytes())
		}
		fmt.Println()
	}
	fmt.Println("Note how SOR-Zero's TreadMarks column ships *less* data than")
	fmt.Println("PVM (diffs of mostly-zero pages are tiny) while still sending")
	fmt.Println("about five times as many messages (barrier + diff requests).")
}
