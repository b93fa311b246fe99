// Command bench is the repository's benchmark: the paper grids, the
// experiment service and the worker fleet, measured end to end from
// outside the product (the real msvdsm binary as child processes) and,
// in a separate traced run, layer by layer from outside each package.
// See README.md in this directory.
//
//	go run -C bench . --workload table2-tmk --seed 1 --seconds 10 --trace 0
//	go run -C bench .            # every workload, untraced then traced
//	go run -C bench . -aa        # A/A self-check against the bounds
//	go run -C bench . -manifest  # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Int64("seed", 1, "seed for the request streams (grid workloads are seedless)")
	seconds := flag.Int("seconds", runSeconds, "seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	aa := flag.Bool("aa", false, "run the end-to-end set twice on this build and compare against the bounds")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	code := run(*wl, *seed, *seconds, *trace, *aa)
	killChildren()
	os.Exit(code)
}

func run(wl string, seed int64, seconds, trace int, aa bool) int {
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds n] [--trace 0|1] | -aa | -manifest")
		return 2
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	budget := time.Duration(seconds) * time.Second
	switch {
	case aa:
		return e.runAA(seed, budget)
	case wl == "":
		// Every metric by name, per workload: untraced, then traced.
		for _, w := range workloads {
			for _, tr := range []int{0, 1} {
				if _, err := e.runOne(&w, seed, budget, tr); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
			}
		}
		return 0
	}
	w := findWorkload(wl)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", wl)
		return 2
	}
	if _, err := e.runOne(w, seed, budget, trace); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// runOne runs one workload in one mode, prints the host figures, the
// notes, every metric with its unit, and the result line the driver reads.
func (e *env) runOne(w *workload, seed int64, budget time.Duration, trace int) (*result, error) {
	fmt.Printf("== %s (trace %d, seed %d, %v)\n", w.Name, trace, seed, budget)
	fmt.Println(e.hostInfo())
	var res *result
	var err error
	defs := endToEnd
	switch {
	case trace == 1:
		defs = perLayer
		res, err = e.runTraced(w, seed)
	case w.Kind == kindGrid:
		res, err = e.runGridWorkload(w, budget)
	case w.Kind == kindServe:
		res, err = e.runServeWorkload(w, seed, budget)
	default:
		res, err = e.runFleetWorkload(w, budget)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	for _, n := range res.Notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  ops_attempted=%d ops_failed=%d fail_ratio=%g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	fmt.Println(res.line(defs))
	return res, nil
}

// line renders the result object the driver reads: exactly the metrics
// of defs, a metric the run did not produce reading 0.
func (r *result) line(defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{r.Metrics[d.Name], d.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // numbers and strings only
	}
	return string(out)
}
