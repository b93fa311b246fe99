package harness

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vnet"
)

// runKeyJobs is every registered backend × every scenario set at P=2
// over three apps, with the sequential baseline once per app as a grid
// enumerates it.  QSORT has a PVM master, so the colocated set changes
// its PVM runs; the bigp set runs only at 16 processors and above, so
// it is left out.  Pairs the DSM refuses to build are skipped.
func runKeyJobs(t *testing.T) []Job {
	t.Helper()
	apps := Apps(0.01)
	var jobs []Job
	for _, name := range []string{"QSORT", "SOR-Zero", "IS-Small"} {
		app := Find(apps, name)
		jobs = append(jobs, Job{App: app, Backend: core.Seq, Scenario: core.Base(1)})
		for _, set := range ScenarioSets() {
			if set == "bigp" {
				continue
			}
			scs, err := ScenarioSet(set, []int{2})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range Backends() {
				if core.IsBaseline(b) {
					continue
				}
				for _, sc := range scs {
					if core.Supports(b, sc) == nil {
						jobs = append(jobs, Job{App: app, Backend: b, Scenario: sc})
					}
				}
			}
		}
	}
	return jobs
}

// TestRunKeyExact proves the run key exact over the registered backends
// and scenario sets: each job runs alone through Job.Run, and within
// every run-key group the records are equal but for the job's own
// backend and scenario names.  A projection that drops a field an
// adapter reads splits nothing here but fails TestPins; an adapter
// that reads a field outside its projection fails this test.
func TestRunKeyExact(t *testing.T) {
	jobs := runKeyJobs(t)
	recs := make([]Record, len(jobs))
	err := ForEach(context.Background(), len(jobs), 2, func(i int) error {
		j := jobs[i]
		j.App = j.App.Clone()
		rec, err := j.Run()
		recs[i] = rec
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := Runs(jobs)
	for _, run := range runs {
		want := recs[run[0]]
		for _, i := range run[1:] {
			got := recs[i]
			got.Backend, got.Scenario = want.Backend, want.Scenario
			if got != want {
				t.Errorf("%s/%s/%s and %s/%s share a run key but not a record:\n  %+v\n  %+v",
					want.App, recs[i].Backend, recs[i].Scenario, want.Backend, want.Scenario, recs[i], recs[run[0]])
			}
			if jobs[i].Share(recs[run[0]]) != recs[i] {
				t.Errorf("Share of %s/%s's record is not %s/%s's", want.Backend, want.Scenario, recs[i].Backend, recs[i].Scenario)
			}
		}
	}
	// The sweep shares what the paper's axes leave alone: PVM under every
	// page size and handler cost, TreadMarks with the PVM master placed.
	if len(runs) >= len(jobs) {
		t.Fatalf("%d jobs in %d runs: nothing shared", len(jobs), len(runs))
	}
	t.Logf("%d jobs, %d runs", len(jobs), len(runs))
}

// TestRunKeyParts pins which parts of a job the key reads: the adapter
// after a Variant rewrite and that adapter's projection, the app and
// its problem; a backend core does not know shares with nothing.
func TestRunKeyParts(t *testing.T) {
	apps := Apps(0.01)
	qsort, ep := Find(apps, "QSORT"), Find(apps, "EP")
	base := core.Base(2)
	page := base
	page.Name, page.DSM.PageSize = "page=1024", 1024
	colo := scenario("colocated", "colocated", 2)
	slowNet := base
	slowNet.Name, slowNet.Net = "eth10", vnet.Ethernet10()
	for _, c := range []struct {
		name string
		a, b Job
		same bool
	}{
		{"pvm ignores the page size", Job{qsort, core.PVM, base}, Job{qsort, core.PVM, page}, true},
		{"tmk reads the page size", Job{qsort, core.TMK, base}, Job{qsort, core.TMK, page}, false},
		{"tmk-1k is tmk on 1 KB pages", Job{qsort, TMKSmallPage, base}, Job{qsort, core.TMK, page}, true},
		{"tmk ignores the master's placement", Job{qsort, core.TMK, base}, Job{qsort, core.TMK, colo}, true},
		{"pvm reads the master's placement", Job{qsort, core.PVM, base}, Job{qsort, core.PVM, colo}, false},
		{"pvm reads the network", Job{qsort, core.PVM, base}, Job{qsort, core.PVM, slowNet}, false},
		{"pvm-xdr is not pvm", Job{qsort, PVMXDR, base}, Job{qsort, core.PVM, base}, false},
		{"the app is part of the key", Job{qsort, core.PVM, base}, Job{ep, core.PVM, base}, false},
		{"the problem is part of the key", Job{ep, core.PVM, base}, Job{Find(Apps(0.02), "EP"), core.PVM, base}, false},
		{"seq reads nothing", Job{ep, core.Seq, core.Base(1)}, Job{ep, core.Seq, slowNet}, true},
		{"an unknown backend shares nothing", Job{ep, &failFrom{}, base}, Job{ep, &failFrom{}, page}, false},
	} {
		keys := RunKeys([]Job{c.a, c.b})
		if (keys[0] == keys[1]) != c.same {
			t.Errorf("%s: keys equal %v, want %v", c.name, keys[0] == keys[1], c.same)
		}
	}
	unknown := Job{ep, &failFrom{}, base}
	if RunKeys([]Job{unknown})[0] != SpecHash(unknown) {
		t.Error("an unknown backend's run key is not its spec hash")
	}
}

// TestRunKeyCounts pins how many runs the benchmark's selections take:
// the fleet sweep's 528 jobs are 336 runs, and every grid workload's
// jobs are all distinct runs.
func TestRunKeyCounts(t *testing.T) {
	for _, c := range []struct {
		name       string
		sel        Selection
		jobs, runs int
	}{
		{"fleet-sweep", Selection{Backends: []string{"tmk", "pvm"}, Scenarios: []string{"base", "page", "lat"}, NProcs: []int{2, 4}}, 528, 336},
		{"table2-tmk", Selection{Backends: []string{"tmk"}, Scenarios: []string{"base"}, NProcs: []int{8}}, 12, 12},
		{"table2-pvm", Selection{Backends: []string{"seq", "pvm"}, Scenarios: []string{"base"}, NProcs: []int{8}}, 24, 24},
		{"bigp-scale P=64", Selection{Apps: []string{"sor-zero", "water-288", "3d-fft", "is-small"}, Backends: []string{"tmk", "tmk-tree", "tmk-sc-tree", "pvm"}, Scenarios: []string{"bigp"}, NProcs: []int{64}}, 16, 16},
		{"bigp-scale P=256", Selection{Apps: []string{"sor-zero"}, Backends: []string{"tmk-tree", "pvm"}, Scenarios: []string{"bigp"}, NProcs: []int{256}}, 2, 2},
		{"lossy-net", Selection{Apps: []string{"is-small", "water-288", "3d-fft", "ilink"}, Backends: []string{"tmk", "tmk-sc", "pvm"}, Scenarios: []string{"loss", "reorder", "partition"}, NProcs: []int{8}}, 72, 72},
	} {
		g, err := c.sel.Resolve(1)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		if runs := Runs(jobs); len(jobs) != c.jobs || len(runs) != c.runs {
			t.Errorf("%s: %d jobs in %d runs, want %d in %d", c.name, len(jobs), len(runs), c.jobs, c.runs)
		}
	}
}

// TestRunJobsSharesRuns: a selection with duplicate runs gives the
// records of one Job.Run per job, byte for byte, at every pool width;
// progress reports every index once; and when a shared run fails, the
// error is the earliest-indexed one a serial loop over Job.Run stops at.
func TestRunJobsSharesRuns(t *testing.T) {
	g, err := Selection{
		Apps:      []string{"qsort", "ep"},
		Backends:  []string{"tmk", "pvm", "tmk-1k"},
		Scenarios: []string{"base", "page", "colocated"},
		NProcs:    []int{2},
	}.Resolve(0.01)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if runs := Runs(jobs); len(runs) == len(jobs) {
		t.Fatalf("%d jobs, no duplicate runs", len(jobs))
	}
	var want bytes.Buffer
	oracle := make([]Record, len(jobs))
	for i, j := range jobs {
		j.App = j.App.Clone()
		if oracle[i], err = j.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteJSON(&want, oracle); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 3} {
		reported := make([]int, len(jobs))
		recs, err := RunJobs(jobs, width, func(i int, rec Record) {
			reported[i]++
			if rec != oracle[i] {
				t.Errorf("width %d: progress record %d is %+v, want %+v", width, i, rec, oracle[i])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteJSON(&got, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("width %d: shared-run output differs from one Job.Run per job", width)
		}
		if slices.ContainsFunc(reported, func(n int) bool { return n != 1 }) {
			t.Errorf("width %d: progress counts per index %v, want each 1", width, reported)
		}
	}

	// A TreadMarks variant whose system the DSM refuses to build (a tree
	// barrier on a lossy network): its jobs under base and colocated are
	// one run, and that run panics.
	broken := core.Variant("tmk-broken", core.TMK, func(sc core.Scenario) core.Scenario {
		sc.Net.Faults.Loss = 0.01
		sc.DSM.TreeBarrier = 2
		return sc
	})
	ep := Find(Apps(0.01), "EP")
	colo := scenario("colocated", "colocated", 2)
	bad := []Job{
		{ep, core.TMK, core.Base(2)},
		{ep, broken, colo},
		{ep, core.PVM, core.Base(2)},
		{ep, broken, core.Base(2)},
	}
	if runs := Runs(bad); !slices.Equal(runs[1], []int{1, 3}) {
		t.Fatalf("runs %v, want the two broken jobs in one", runs)
	}
	var serialErr error
	for _, j := range bad {
		if _, serialErr = j.Run(); serialErr != nil {
			break
		}
	}
	for _, width := range []int{1, 4} {
		var reported []int
		recs, err := RunJobs(bad, width, func(i int, _ Record) { reported = append(reported, i) })
		if err == nil || serialErr == nil || err.Error() != serialErr.Error() {
			t.Fatalf("width %d: error %v, want the serial loop's %v", width, err, serialErr)
		}
		if recs != nil || slices.Contains(reported, 1) || slices.Contains(reported, 3) {
			t.Errorf("width %d: records %v, progress %v after a failed run", width, recs, reported)
		}
	}
	if want := fmt.Sprintf("EP/tmk-broken/%s n=2: ", colo.Name); serialErr == nil || !strings.HasPrefix(serialErr.Error(), want) {
		t.Errorf("serial error %v does not name the first broken job", serialErr)
	}
}
