package harness

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// Record is one run's structured result: the coordinates that produced it
// (app, backend, scenario, processor count) plus the modeled measurements
// the paper reports and the TreadMarks behavioral detail.  Records are
// the single interchange format of the harness: tables, figures, goldens
// and the CLI's JSON/CSV output are all views of []Record.  The fields,
// named by their json tags in declaration order, are also the CSV
// columns (WriteCSV), so a new column is a field here and its line in
// recordOf.  Record stays a comparable value of strings and numbers: the
// serve store compares records with != and decodes cached JSON into it.
type Record struct {
	App      string `json:"app"`
	Figure   int    `json:"figure,omitempty"`
	Problem  string `json:"problem,omitempty"`
	Backend  string `json:"backend"`
	Scenario string `json:"scenario"`
	Procs    int    `json:"procs"`

	TimeNS   int64   `json:"time_ns"`
	Seconds  float64 `json:"seconds"`
	Messages int64   `json:"messages"`
	Bytes    int64   `json:"bytes"`

	// Fault-injection accounting (zero on a fault-free network): wire
	// transmissions killed by the fault layer, retransmitted/duplicated
	// ones, and protocol RPC timeouts fired.
	Dropped  int64 `json:"dropped,omitempty"`
	Retrans  int64 `json:"retrans,omitempty"`
	Timeouts int   `json:"timeouts,omitempty"`

	Faults        int   `json:"faults,omitempty"`
	DiffRequests  int   `json:"diff_requests,omitempty"`
	DiffsApplied  int   `json:"diffs_applied,omitempty"`
	DiffBytes     int64 `json:"diff_bytes,omitempty"`
	LockWaitNS    int64 `json:"lock_wait_ns,omitempty"`
	BarrierWaitNS int64 `json:"barrier_wait_ns,omitempty"`
}

// Time returns the modeled wall-clock as a sim.Time.
func (r Record) Time() sim.Time { return sim.Time(r.TimeNS) }

// Kilobytes reports Bytes in units of 1000 bytes (the paper's
// "Kilobytes") — the one definition every rendered table uses.
func (r Record) Kilobytes() float64 { return float64(r.Bytes) / 1000 }

// recordOf flattens one run result into a Record.
func recordOf(app core.App, b core.Backend, sc core.Scenario, res core.Result) Record {
	return Record{
		App:      app.Name(),
		Figure:   app.Figure(),
		Problem:  app.Problem(),
		Backend:  b.Name(),
		Scenario: sc.Name,
		Procs:    sc.Procs,

		TimeNS:   int64(res.Time),
		Seconds:  res.Time.Seconds(),
		Messages: res.Net.Messages,
		Bytes:    res.Net.Bytes,

		Dropped:  res.Net.Dropped,
		Retrans:  res.Net.Retrans,
		Timeouts: res.Timeouts,

		Faults:        res.Faults,
		DiffRequests:  res.DiffRequests,
		DiffsApplied:  res.DiffsApplied,
		DiffBytes:     res.DiffBytes,
		LockWaitNS:    int64(res.LockWait),
		BarrierWaitNS: int64(res.BarrierWait),
	}
}

// Grid is a declarative experiment plan: the cross product of apps,
// backends and scenarios.  Scenario-independent backends (the sequential
// baseline) run once per app at one processor, not once per scenario.
type Grid struct {
	Apps      []core.App
	Backends  []core.Backend
	Scenarios []core.Scenario

	// Workers is the width of the pool Run executes on: every run is an
	// independent engine on its own clone of the app, whose Program no
	// run writes, so up to Workers of them execute on concurrent
	// goroutines with nothing they write shared between them.  Records
	// land by job index, so the output is byte-identical at every width;
	// Workers <= 1 (the default) is a pool of one.
	Workers int
}

// Job is one enumerated run of a Grid: the (app, backend, scenario)
// coordinates that produce one Record.  Jobs are exported so layers
// above the grid — the serve result cache, the dispatch worker fleet —
// can enumerate, content-hash (SpecHash) and execute runs individually;
// Grid.Run is exactly Jobs followed by RunJobs.
type Job struct {
	App      core.App
	Backend  core.Backend
	Scenario core.Scenario
}

// ErrJobPanicked marks the error of a job whose run panicked.  Resolve
// refuses the configurations known to panic, but a job runs on a pool
// goroutine or a fleet worker, where a panic anything else raises (or a
// bug in a model) would end the process and every other job with it.
var ErrJobPanicked = errors.New("job panicked")

// Run executes the job on j.App itself and flattens the result into a
// Record; the app keeps the run's output for its Check.  A panic in the
// run becomes an error wrapping ErrJobPanicked.
func (j Job) Run() (rec Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			rec, err = Record{}, j.wrap(fmt.Errorf("%w: %v", ErrJobPanicked, p))
		}
	}()
	res, err := j.Backend.Run(j.App, j.Scenario)
	if err != nil {
		return Record{}, j.wrap(err)
	}
	return recordOf(j.App, j.Backend, j.Scenario, res), nil
}

// wrap prefixes err with the job's coordinates.
func (j Job) wrap(err error) error {
	if core.IsBaseline(j.Backend) {
		return fmt.Errorf("%s/%s: %w", j.App.Name(), j.Backend.Name(), err)
	}
	return fmt.Errorf("%s/%s/%s n=%d: %w", j.App.Name(), j.Backend.Name(), j.Scenario.Name, j.Scenario.Procs, err)
}

// Jobs enumerates the grid in deterministic order — apps outermost
// (registry order), then backends, then scenarios — with the baseline
// dedup applied.
func (g Grid) Jobs() ([]Job, error) {
	if len(g.Scenarios) == 0 {
		for _, b := range g.Backends {
			if !core.IsBaseline(b) {
				return nil, fmt.Errorf("grid: backend %q needs scenarios, none given", b.Name())
			}
		}
	}
	var jobs []Job
	for _, app := range g.Apps {
		for _, b := range g.Backends {
			if core.IsBaseline(b) {
				jobs = append(jobs, Job{App: app, Backend: b, Scenario: core.Base(1)})
				continue
			}
			for _, sc := range g.Scenarios {
				jobs = append(jobs, Job{App: app, Backend: b, Scenario: sc})
			}
		}
	}
	return jobs, nil
}

// Run executes the grid and returns one record per run in enumeration
// order.  A failing run aborts the grid: no run starts after it fails,
// and the error of the earliest-indexed failing run is returned.
func (g Grid) Run() ([]Record, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	return RunJobs(jobs, g.Workers, nil)
}

// RunJobs executes an explicit job list (typically from Grid.Jobs) under
// the Grid.Run execution contract: one run per group of jobs with one
// run key (Runs), on its first job's own clone of its app, on a pool of
// the given width; every job of the group gets that record under its
// own coordinates (Job.Share), so the records are those of a Job.Run
// per job, by job index; the earliest-indexed failure is reported.
// progress, when non-nil, is invoked once per job with the job's index
// and its record, never concurrently.  A pool of one reports run by
// run in enumeration order, each run's jobs in index order; a wider
// pool reports in completion order, with exactly the same (index,
// record) set.  A failing run reports no progress — its error aborts
// the sweep.
func RunJobs(jobs []Job, workers int, progress func(index int, rec Record)) ([]Record, error) {
	runs := Runs(RunKeys(jobs))
	recs := make([]Record, len(jobs))
	var progressMu sync.Mutex
	err := ForEach(context.Background(), len(runs), workers, func(r int) error {
		j := jobs[runs[r][0]]
		j.App = j.App.Clone()
		rec, err := j.Run()
		if err != nil {
			return err
		}
		for _, i := range runs[r] {
			recs[i] = jobs[i].Share(rec)
		}
		if progress != nil {
			progressMu.Lock()
			defer progressMu.Unlock()
			for _, i := range runs[r] {
				progress(i, recs[i])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// ForEach calls fn(i) for every i in [0, n) on max(1, min(workers, n))
// goroutines, handing the indices out in increasing order.  Once ctx is
// done or any call has failed it hands out no more; calls already
// running finish.  It returns the error of the lowest failing index —
// every lower index was handed out first, so it is the error a serial
// loop over the same calls stops at.  A done ctx fails the first index
// it kept from starting.  Cancellation is between calls: a call in
// progress is not interrupted.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	var (
		mu     sync.Mutex
		next   int
		failed = n // lowest failing index so far; n while none has failed
		first  error
		wg     sync.WaitGroup
	)
	fail := func(i int, err error) {
		if i < failed {
			failed, first = i, err
		}
	}
	for range max(1, min(workers, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= n || failed < n {
					mu.Unlock()
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					fail(i, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// WriteJSON emits the records as a JSON array (one object per run):
// JoinRecordJSON over each record's RecordJSON, in one Write.
func WriteJSON(w io.Writer, recs []Record) error {
	body := []byte("null\n") // what encoding/json makes of a nil slice
	if recs != nil {
		frags := make([][]byte, len(recs))
		for i, rec := range recs {
			frag, err := RecordJSON(rec)
			if err != nil {
				return err
			}
			frags[i] = frag
		}
		body = JoinRecordJSON(nil, frags)
	}
	_, err := w.Write(body)
	return err
}

// RecordJSON encodes one record as the indented JSON object it is
// inside the array WriteJSON emits.  A record's bytes depend on nothing
// but the record, so a layer that serves the same records again and
// again (the serve store) keeps the fragment and joins instead of
// re-encoding.
func RecordJSON(rec Record) ([]byte, error) {
	return json.MarshalIndent(rec, "  ", "  ")
}

// JoinRecordJSON appends to body (nil, or a buffer to reuse) the array
// document made of RecordJSON fragments.  It is the only place the array
// syntax is written, so the CLI's output and the service's cannot
// drift; the bytes are those of a two-space indenting json.Encoder over
// the records (TestWriteJSONMatchesEncoder).
func JoinRecordJSON(body []byte, frags [][]byte) []byte {
	if len(frags) == 0 {
		return append(body, "[]\n"...)
	}
	const open, sep, end = "[\n  ", ",\n  ", "\n]\n"
	n := len(open) + len(sep)*(len(frags)-1) + len(end)
	for _, f := range frags {
		n += len(f)
	}
	body = append(slices.Grow(body, n), open...)
	for i, f := range frags {
		if i > 0 {
			body = append(body, sep...)
		}
		body = append(body, f...)
	}
	return append(body, end...)
}

// WriteCSV emits the records as CSV: a header row of Record's json
// names, then one row per record with a column per Record field in
// declaration order.  Strings are written as they are, integers in
// decimal, floats in the shortest form that reads back exactly
// (strconv's 'g', -1); an omitempty field still prints its zero.  The
// underlying writer is flushed and checked per row, so a sink that
// breaks mid-stream (a closed HTTP connection) surfaces as an error at
// the first failing record instead of being swallowed by csv.Writer's
// buffering until the end.
func WriteCSV(w io.Writer, recs []Record) error {
	cols := reflect.TypeFor[Record]()
	row := make([]string, cols.NumField())
	for i := range row {
		row[i], _, _ = strings.Cut(cols.Field(i).Tag.Get("json"), ",")
	}
	cw := csv.NewWriter(w)
	writeRow := func() error {
		if err := cw.Write(row); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
	if err := writeRow(); err != nil {
		return err
	}
	for _, r := range recs {
		v := reflect.ValueOf(r)
		for i := range row {
			row[i] = csvCell(v.Field(i))
		}
		if err := writeRow(); err != nil {
			return err
		}
	}
	return nil
}

// csvCell formats one Record field for WriteCSV.
func csvCell(v reflect.Value) string {
	switch v.Kind() {
	case reflect.String:
		return v.String()
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	}
	return strconv.FormatInt(v.Int(), 10)
}
