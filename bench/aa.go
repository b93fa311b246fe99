package main

import (
	"fmt"
	"time"
)

// The A/A self-check: the same build measured as if it were two, judged
// by the benchmark's own bounds.  Runs of the two sets alternate per
// workload (A1 B1 A2 B2 ...), because on a shared host the speed drifts
// over minutes and two sets measured one after the other would differ by
// the drift, not by anything the benchmark controls.  Run i of set A and
// run i of set B use the same seed, so both sets send the same requests.

// apart is how much worse the worse of a and b is than the better one.
func apart(def metricDef, a, b float64) float64 {
	return max(worsening(def, a, b), worsening(def, b, a))
}

// aaRuns is how many times each set measures each workload.
const aaRuns = 3

// worsening is how much worse b is than a, as a share of a.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA measures every workload aaRuns times per set and compares the
// sets' medians in both directions (the sets are interchangeable, so A
// slower than B is the same noise as B slower than A); it returns the
// process exit code.
func (e *env) runAA(seed int64, budget time.Duration) int {
	type cell struct{ a, b []float64 }
	table := map[string]map[string]*cell{}
	for _, w := range workloads {
		table[w.Name] = map[string]*cell{}
		for _, d := range endToEnd {
			table[w.Name][d.Name] = &cell{}
		}
		for i := 0; i < aaRuns; i++ {
			for set := 0; set < 2; set++ {
				res, err := e.runOne(&w, seed+int64(i), budget, 0)
				if err != nil {
					fmt.Println(err)
					return 1
				}
				if res.Failed > 0 {
					fmt.Printf("bench: %s: %d of %d operations failed\n", w.Name, res.Failed, res.Attempted)
					return 1
				}
				for _, d := range endToEnd {
					c := table[w.Name][d.Name]
					if set == 0 {
						c.a = append(c.a, res.Metrics[d.Name])
					} else {
						c.b = append(c.b, res.Metrics[d.Name])
					}
				}
			}
		}
	}

	fmt.Printf("== A/A: medians of %d runs per set; the worse set against the better one\n", aaRuns)
	fmt.Printf("%-12s %-11s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "apart by", "bound")
	outside := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			c := table[w.Name][d.Name]
			a, b := median(c.a), median(c.b)
			gap := apart(d, a, b)
			flag := ""
			if gap > d.Bound {
				flag = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-12s %-11s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", w.Name, d.Name, a, b, 100*gap, 100*d.Bound, flag)
		}
	}
	if outside > 0 {
		fmt.Printf("A/A: %d metric(s) outside their bound\n", outside)
		return 1
	}
	fmt.Println("A/A: every metric inside its bound")
	return 0
}
