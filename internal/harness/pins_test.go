package harness

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/pins/*.csv from a serial run of each pin set, and testdata/scenarios.txt")

// pinDir holds one CSV file per pin set.
var pinDir = filepath.Join("testdata", "pins")

// goldenScale is the reduced workload scale the quick-mode experiments
// run at.
const goldenScale = 0.1

// goldenProcs are the processor counts the reduced-scale sets run at.
var goldenProcs = [3]int{2, 4, 8}

// A pinSet is one slice of the model the tier-1 tests hold still: a
// selection resolved at a workload scale.  Its pinned value is
// testdata/pins/<name>.csv, exactly the bytes WriteCSV writes for the
// set's records, which is what the set's command prints.  A model change
// therefore shows in the diff of those files, cell by cell.
type pinSet struct {
	name  string
	sel   Selection
	scale float64
	long  bool // skipped under -short
}

var pinSets = []pinSet{
	// Every registered experiment, all twelve figures of the paper's
	// evaluation, under both systems at 2, 4 and 8 processors.  Table 2
	// is the 8-processor column of this set at reduced scale.
	{name: "golden", scale: goldenScale, long: true, sel: Selection{
		Backends: []string{"tmk", "pvm"}, Scenarios: []string{"base"}, NProcs: goldenProcs[:]}},
	// What the reduced-scale set cannot see: below scale 1.0 TSP swaps in
	// a 12-city instance, so a search kernel that visits a different
	// number of nodes at the paper's 14 cities would pass it.  Each app's
	// sequential time is its operation count times a constant, and pins
	// it; TSP's parallel versions are pinned too, because the order in
	// which subtours improve the bound, and so the node count, differs
	// from the sequential search.
	{name: "paper-seq", scale: 1, long: true, sel: Selection{Backends: []string{"seq"}}},
	{name: "paper-tsp", scale: 1, long: true, sel: Selection{
		Apps: []string{"tsp"}, Backends: []string{"tmk", "pvm"}, NProcs: []int{8}}},
	// Below scale 1.0 3D-FFT runs at N=16.  At the paper's N=64 TreadMarks'
	// diff bytes depend on the values the local passes compute, so twiddles
	// that are off by an ulp move this set while every reduced-scale set
	// still passes.
	{name: "paper-fft", scale: 1, long: true, sel: Selection{
		Apps: []string{"3d-fft"}, Backends: []string{"tmk", "pvm"}, NProcs: []int{8}}},
	// The paper's Table 2 itself: every app under both systems at 8
	// processors and paper scale.  Below scale 1.0 SOR's rows are fewer
	// and its float pages hold other values, so a change to its access
	// pattern or to the diff scan of its pages can pass the golden set
	// and still move TreadMarks' diff bytes here.
	{name: "paper-table2", scale: 1, long: true, sel: Selection{
		Backends: []string{"tmk", "pvm"}, NProcs: []int{8}}},
	// The at-least-once layer under every fault axis: the lock-, barrier-
	// and diff-heavy apps, so each role (lock manager, grantor, barrier
	// manager, diff server) retransmits and suppresses duplicates.  QSORT
	// under tmk at 20 % duplication retransmits thousands of times.
	{name: "faults", scale: 0.05, sel: Selection{
		Apps:      []string{"sor-zero", "is-small", "qsort", "tsp", "water-288", "ep"},
		Backends:  []string{"tmk", "tmk-sc"},
		Scenarios: []string{"loss", "dup", "reorder", "partition"},
		NProcs:    []int{4}}},
	// The protocol variants fault-free: eager invalidation, the combining
	// tree barrier with its relayed notices, and both together.
	{name: "variants", scale: goldenScale, long: true, sel: Selection{
		Backends: []string{"tmk-sc", "tmk-tree", "tmk-sc-tree"}, Scenarios: []string{"base"}, NProcs: goldenProcs[:]}},
	// Lock and barrier managers all on processor 0, and barrier managers
	// spread over the processors.
	{name: "placement", scale: goldenScale, long: true, sel: Selection{
		Backends: []string{"tmk"}, Scenarios: []string{"placement"}, NProcs: []int{4}}},
	// PVM under every network axis the other sets hold only for
	// TreadMarks: bandwidth, latency, MTU, loss, reorder, a partition and
	// a slow node.  A pvm bug that misreads one vnet.Config field moves
	// this set while every base-scenario pvm cell stays put.
	{name: "pvm-net", scale: goldenScale, long: true, sel: Selection{
		Backends:  []string{"pvm"},
		Scenarios: []string{"bw", "lat", "mtu", "loss", "reorder", "partition", "slow"},
		NProcs:    []int{4}}},
	// Large P on the bigp registry: multi-level trees, relayed notices
	// under causal admission and the P=64 timestamp paths, on the
	// barrier-, bucket-, lock- and all-to-all-heavy apps.
	{name: "bigp", scale: 0.05, long: true, sel: Selection{
		Apps:      []string{"sor-zero", "is-small", "water-288", "3d-fft"},
		Backends:  []string{"tmk", "tmk-sc", "tmk-tree", "tmk-sc-tree"},
		Scenarios: []string{"bigp"},
		NProcs:    []int{16, 64}}},
}

// command is the msvdsm invocation whose output is the set's file.
func (p pinSet) command() string {
	args := []string{"go run ./cmd/msvdsm -j 1 -scale", strconv.FormatFloat(p.scale, 'g', -1, 64), "-format csv grid"}
	list := func(flag string, vals []string) {
		if len(vals) > 0 {
			args = append(args, "-"+flag, strings.Join(vals, ","))
		}
	}
	list("apps", p.sel.Apps)
	list("backends", p.sel.Backends)
	list("scenarios", p.sel.Scenarios)
	var procs []string
	for _, n := range p.sel.NProcs {
		procs = append(procs, strconv.Itoa(n))
	}
	list("nprocs", procs)
	return strings.Join(args, " ") + " > internal/harness/" + filepath.ToSlash(filepath.Join(pinDir, p.name+".csv"))
}

// pinTests names the sets each named pin test checks.  The reduced-scale
// Table 2 grid, the paper-scale cells and the lossy cells keep the tests
// that pinned them before the files did; TestPins checks every other set.
var pinTests = map[string][]string{
	"TestGoldenMetrics":            {"golden"},
	"TestGoldenMetricsGridWorkers": {"golden"},
	"TestPaperScaleGolden":         {"paper-seq", "paper-tsp", "paper-fft", "paper-table2"},
	"TestFaultGolden":              {"faults"},
}

// pinWidth is the pool width the pin tests run at: at least four, so the
// pool is concurrent even on a small host.
func pinWidth() int { return max(4, runtime.GOMAXPROCS(0)) }

// TestGoldenMetrics runs the golden set serially.
func TestGoldenMetrics(t *testing.T) { checkPins(t, 1, pinTests[t.Name()]...) }

// TestGoldenMetricsGridWorkers runs the golden set on a pool: matching the
// same file as TestGoldenMetrics's serial run shows pool == serial, cell
// order included.
func TestGoldenMetricsGridWorkers(t *testing.T) { checkPins(t, pinWidth(), pinTests[t.Name()]...) }

func TestPaperScaleGolden(t *testing.T) { checkPins(t, pinWidth(), pinTests[t.Name()]...) }

func TestFaultGolden(t *testing.T) { checkPins(t, pinWidth(), pinTests[t.Name()]...) }

// TestPins checks that every file pins a set and runs, on a pool, every
// set no other pin test checks.  With -update it rewrites every set's
// file from a serial run instead, so a later pass also shows that the
// pool reproduces the serial records.  Regenerate only when a change is
// supposed to alter the model: go test ./internal/harness -run TestPins
// -update.
func TestPins(t *testing.T) {
	known := map[string]bool{}
	for _, p := range pinSets {
		known[p.name+".csv"] = true
	}
	files, err := filepath.Glob(filepath.Join(pinDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !known[filepath.Base(f)] {
			t.Errorf("%s pins no set: add it to pinSets or delete it", f)
		}
	}

	owned := map[string]bool{}
	for _, names := range pinTests {
		for _, n := range names {
			owned[n] = true
		}
	}
	var rest []string
	for _, p := range pinSets {
		if *update || !owned[p.name] {
			rest = append(rest, p.name)
		}
	}
	checkPins(t, pinWidth(), rest...)
}

// checkPins runs the named sets on a pool of the given width and compares
// each CSV with its checked-in file, one subtest per set.  The sets run as
// one job list, so a cell two of them hold (paper-tsp and paper-fft are
// rows of paper-table2) is simulated once (RunJobs).  With -update it
// rewrites the files from a serial run instead.
func checkPins(t *testing.T, workers int, names ...string) {
	t.Helper()
	if *update {
		workers = 1
	}
	var sets []pinSet
	var jobs []Job
	var ends []int
	for _, name := range names {
		i := slices.IndexFunc(pinSets, func(p pinSet) bool { return p.name == name })
		if i < 0 {
			t.Fatalf("no pin set %q", name)
		}
		p := pinSets[i]
		if !(p.long && testing.Short()) {
			g, err := p.sel.Resolve(p.scale)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			js, err := g.Jobs()
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			jobs = append(jobs, js...)
		}
		sets = append(sets, p)
		ends = append(ends, len(jobs))
	}
	recs, err := RunJobs(jobs, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for k, p := range sets {
		setRecs := recs[start:ends[k]]
		start = ends[k]
		t.Run(p.name, func(t *testing.T) {
			if p.long && testing.Short() {
				t.Skip("long pin set in -short mode")
			}
			var got bytes.Buffer
			if err := WriteCSV(&got, setRecs); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(pinDir, p.name+".csv")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v; create it with -update or with\n  %s", err, p.command())
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			for _, d := range diffPins(want, got.Bytes()) {
				t.Error(d)
			}
			t.Errorf("%s does not match the model; if the change is meant to move it, regenerate with -update or with\n  %s", path, p.command())
		})
	}
}

// diffPins names what moved between two pin files: each cell (app,
// backend, scenario, procs) whose fields differ, field by field, and
// each cell only one side has.
func diffPins(want, got []byte) []string {
	wrows, werr := csv.NewReader(bytes.NewReader(want)).ReadAll()
	grows, gerr := csv.NewReader(bytes.NewReader(got)).ReadAll()
	if werr != nil || gerr != nil || len(wrows) == 0 || len(grows) == 0 {
		return []string{fmt.Sprintf("unreadable pin CSV (pinned: %v, run: %v)", werr, gerr)}
	}
	header := wrows[0]
	if strings.Join(header, ",") != strings.Join(grows[0], ",") {
		return []string{fmt.Sprintf("header moved:\n  pinned %v\n  run    %v", header, grows[0])}
	}
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	key := func(row []string) string {
		return strings.Join([]string{row[col["app"]], row[col["backend"]], row[col["scenario"]], "procs=" + row[col["procs"]]}, "/")
	}
	index := func(rows [][]string) map[string][]string {
		m := map[string][]string{}
		for _, row := range rows[1:] {
			m[key(row)] = row
		}
		return m
	}
	wm, gm := index(wrows), index(grows)
	var out []string
	for _, w := range wrows[1:] {
		k := key(w)
		g, ok := gm[k]
		if !ok {
			out = append(out, k+": pinned cell not produced")
			continue
		}
		for i, h := range header {
			if w[i] != g[i] {
				out = append(out, fmt.Sprintf("%s: %s %s -> %s", k, h, w[i], g[i]))
			}
		}
	}
	for _, g := range grows[1:] {
		if _, ok := wm[key(g)]; !ok {
			out = append(out, key(g)+": cell not pinned")
		}
	}
	if len(out) == 0 {
		out = append(out, "same cells and values in a different order or encoding")
	}
	return out
}
