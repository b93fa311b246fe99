package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

// Grid workloads, end to end: every pass is one fresh `msvdsm -j 1
// -format json grid ...` child per selection, because that is what a
// CLI user pays (an in-process repeat inherits the previous pass's heap;
// see harness.repass_ratio).  Grid workloads take no seed: the fault
// scenarios carry their own pinned seeds.

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// cliArgs renders the selection as `msvdsm grid` flags.
func (s selection) cliArgs() []string {
	var args []string
	if len(s.Apps) > 0 {
		args = append(args, "-apps", strings.Join(s.Apps, ","))
	}
	if len(s.Backends) > 0 {
		args = append(args, "-backends", strings.Join(s.Backends, ","))
	}
	if len(s.Scenarios) > 0 {
		args = append(args, "-scenarios", strings.Join(s.Scenarios, ","))
	}
	if len(s.NProcs) > 0 {
		args = append(args, "-nprocs", joinInts(s.NProcs))
	}
	return args
}

// query renders the selection as a /v1/grid or /v1/spec query string.
func (s selection) query() string {
	q := url.Values{}
	if len(s.Apps) > 0 {
		q.Set("apps", strings.Join(s.Apps, ","))
	}
	if len(s.Backends) > 0 {
		q.Set("backends", strings.Join(s.Backends, ","))
	}
	if len(s.Scenarios) > 0 {
		q.Set("scenarios", strings.Join(s.Scenarios, ","))
	}
	if len(s.NProcs) > 0 {
		q.Set("nprocs", joinInts(s.NProcs))
	}
	if s.Scale > 0 {
		q.Set("scale", strconv.FormatFloat(s.Scale, 'g', -1, 64))
	}
	return q.Encode()
}

// harnessSelection is the in-process form.
func (s selection) harnessSelection() harness.Selection {
	return harness.Selection{Apps: s.Apps, Backends: s.Backends, Scenarios: s.Scenarios, NProcs: s.NProcs}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// countRecords decodes a WriteJSON body far enough to count its records.
func countRecords(body []byte) (int, error) {
	var recs []json.RawMessage
	if err := json.Unmarshal(body, &recs); err != nil {
		return 0, err
	}
	return len(recs), nil
}

// result is what one benchmark run reports.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Notes are printed above the metrics: sample counts, extremes,
	// digests, child resource use.
	Notes []string
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// tallyPass counts one pass's jobs: all of them fail when the pass
// printed something else than the first pass of the same run did.
func (r *result) tallyPass(pass, records int, digest, first string) {
	r.Attempted += records
	if digest != first {
		r.Failed += records
		r.notef("pass %d stdout sha256 %s differs from pass 1", pass, digest)
	}
}

// passMetrics fills the end-to-end metrics of a workload whose request
// is a whole pass (a CLI invocation, a fleet sweep) of jobs operations.
func (r *result) passMetrics(setupS float64, walls []float64, jobs int, plural, unit, request string) {
	r.Metrics["setup_s"] = setupS
	r.Metrics["wall_s"] = median(walls)
	r.Metrics["req_per_s"] = float64(jobs*len(walls)) / sum(walls)
	r.Metrics["req_p50_ms"] = 1000 * median(walls)
	r.Metrics["req_p99_ms"] = 1000 * percentile(walls, 99)
	r.notef("%s=%d jobs/%s=%d wall_s min=%.4f max=%.4f (a request is %s; seedless)",
		plural, len(walls), unit, jobs, percentile(walls, 0), percentile(walls, 100), request)
}

// passCount turns the time budget into a whole number of passes once
// the first pass has been timed: the nearest whole number, at least one.
func passCount(budget, first time.Duration) int {
	n := int(math.Round(budget.Seconds() / first.Seconds()))
	if n < 1 {
		n = 1
	}
	return n
}

// gridPass runs the workload's selections once, each as a fresh child,
// and returns the concatenated stdout, the wall time, the record count
// and the children's rusage.
func (e *env) gridPass(w *workload, jobs int) (out []byte, wall time.Duration, records int, ru usage, err error) {
	for _, sel := range w.Grids {
		args := []string{"-j", strconv.Itoa(jobs), "-scale", w.scaleArg(), "-format", "json", "grid"}
		args = append(args, sel.cliArgs()...)
		stdout, d, u, err := e.runCLI(args...)
		if err != nil {
			return nil, 0, 0, ru, err
		}
		n, err := countRecords(stdout)
		if err != nil {
			return nil, 0, 0, ru, fmt.Errorf("msvdsm %s: undecodable output: %v", strings.Join(args, " "), err)
		}
		out = append(out, stdout...)
		wall += d
		records += n
		ru.add(u)
	}
	return out, wall, records, ru, nil
}

// setupBuilds is how many times a run repeats its set-up; setup_s is
// their median, as the driver's contract asks ("set up several times in
// a run and report the median").  One set-up would not do: the first
// build in a checkout is a real compile of seconds where every later one
// is a 0.13 s up-to-date check, and even as a median of three setup_s is
// the noisiest metric (ten-seed spreads of 6-25%, README.md).  On the
// serve workloads the two extra set-ups cost about 3 s of a 16 s run.
const setupBuilds = 3

// measureSetup runs setup n times and returns the median seconds.
func measureSetup(n int, setup func() error) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// runGridWorkload is the untraced, end-to-end run of a grid workload.
func (e *env) runGridWorkload(w *workload, budget time.Duration) (*result, error) {
	res := &result{Metrics: map[string]float64{}}
	setup, err := measureSetup(setupBuilds, func() error { _, err := e.build(); return err })
	if err != nil {
		return nil, err
	}

	var walls []float64
	var ru usage
	var firstDigest string
	jobsPerPass := 0
	passes := 1
	for i := 0; i < passes; i++ {
		out, wall, records, u, err := e.gridPass(w, 1)
		if err != nil {
			// A pass that exits non-zero fails every job it was to run.
			if jobsPerPass == 0 {
				return nil, err
			}
			res.Attempted += jobsPerPass
			res.Failed += jobsPerPass
			res.notef("pass %d failed: %v", i+1, err)
			continue
		}
		digest := sha256Hex(out)
		if i == 0 {
			firstDigest, jobsPerPass = digest, records
			passes = passCount(budget, wall)
		}
		res.tallyPass(i+1, records, digest, firstDigest)
		walls = append(walls, wall.Seconds())
		ru.add(u)
	}

	res.passMetrics(setup, walls, jobsPerPass, "passes", "pass", "one CLI invocation")
	res.notef("records_sha256=%s", firstDigest)
	res.notef("children: user=%.2fs sys=%.2fs maxrss=%.0fMB", ru.UserS, ru.SysS, ru.MaxRSSMB)
	return res, nil
}
