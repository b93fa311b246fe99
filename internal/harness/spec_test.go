package harness

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// specJob resolves one golden spec coordinate against the paper-scale
// registry.
func specJob(t *testing.T, apps []core.App, app, backend string, sc core.Scenario) Job {
	t.Helper()
	a := Find(apps, app)
	if a == nil {
		t.Fatalf("unknown app %q", app)
	}
	b, err := FindBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	return Job{App: a, Backend: b, Scenario: sc}
}

// TestSpecHashGolden pins the canonical cache keys of a fixed spec set.
// These hashes are the serve cache's content addresses: if this test
// fails, every cached record in every deployed store goes stale.  That
// is correct exactly when the change is a model change (bump
// EngineVersion, regenerate these goldens alongside testdata/pins) and
// a bug in every other case — canonicalization must not drift under
// refactors that keep the model fixed.
func TestSpecHashGolden(t *testing.T) {
	apps := Apps(1.0)
	golden := []struct {
		app, backend, scenario, hash string
	}{
		{"EP", "seq", "base", "d26b12d420946c3c98db896447eefc481deee2a78b9a46b1367982833390abce"},
		{"EP", "tmk", "base", "b2d219c0d9a0f3f6fdb1815b7082338232d1367f7ef6c8862a4590b70234cb04"},
		{"EP", "pvm", "base", "e49d2143243add0ec036947011c818134a83399b92b8d0f37d79340f68af0079"},
		{"SOR-Zero", "tmk", "base", "c52cddfeb01dec40bd10a80c90a06cafd969df2a467a4505eee70a61336ab3c1"},
		{"SOR-Zero", "tmk-sc", "base", "40b70e12c58f9d2f5b6706705416bf2d504dc54c133c5d9214f3849064cc899d"},
		{"SOR-Nonzero", "tmk", "page=1024", "a36ca8f9f79a02de86f8f33ee37914ffa6c440d7d9c80ceca829f0dbc3d726c7"},
		{"Water-288", "pvm", "loss=0.05", "36689b8f422a274df8444c974c814e60eb617802de09a7217e2a2ca1d002e245"},
	}
	scenario := func(name string, procs int) core.Scenario {
		switch name {
		case "base":
			return core.Base(procs)
		case "page=1024":
			return PageSizeScenarios(procs, 1024)[0]
		case "loss=0.05":
			return LossScenarios(procs, 0.05)[0]
		}
		t.Fatalf("unmapped scenario %q", name)
		return core.Scenario{}
	}
	for _, g := range golden {
		procs := 8
		if g.backend == "seq" {
			procs = 1
		}
		if g.app == "SOR-Zero" && g.backend == "tmk" {
			procs = 2
		}
		j := specJob(t, apps, g.app, g.backend, scenario(g.scenario, procs))
		if got := SpecHash(j); got != g.hash {
			t.Errorf("%s/%s/%s: hash %s, want %s\ncanonical spec:\n%s",
				g.app, g.backend, g.scenario, got, g.hash, canonicalSpec(j))
		}
	}
}

// TestSpecHashInstanceInvariance proves the hash is a function of the
// spec, not of object identity: a freshly constructed registry yields
// the same hashes, so any process — this one, a restarted server, a
// future worker — addresses the same cache entries.
func TestSpecHashInstanceInvariance(t *testing.T) {
	a1 := Apps(1.0)
	a2 := Apps(1.0)
	j1 := specJob(t, a1, "EP", "tmk", core.Base(8))
	j2 := specJob(t, a2, "EP", "tmk", core.Base(8))
	if h1, h2 := SpecHash(j1), SpecHash(j2); h1 != h2 {
		t.Fatalf("same spec, different instances, different hashes: %s vs %s", h1, h2)
	}
}

// TestCanonicalMapOrder proves map iteration order cannot leak into the
// canonical rendering: maps populated in different insertion orders
// (and walked by Go's randomized iteration) render identically, with
// keys sorted.
func TestCanonicalMapOrder(t *testing.T) {
	m1 := map[string]int{}
	for _, k := range []string{"zeta", "alpha", "mid", "beta"} {
		m1[k] = len(k)
	}
	m2 := map[string]int{}
	for _, k := range []string{"beta", "mid", "zeta", "alpha"} {
		m2[k] = len(k)
	}
	c1 := canonicalString("m", m1)
	c2 := canonicalString("m", m2)
	if c1 != c2 {
		t.Fatalf("insertion order leaked into canonical form:\n%s\nvs\n%s", c1, c2)
	}
	want := "m.len=4\nm[alpha]=5\nm[beta]=4\nm[mid]=3\nm[zeta]=4\n"
	if c1 != want {
		t.Fatalf("canonical map rendering:\n%s\nwant:\n%s", c1, want)
	}
	// Repeat across many renderings: Go randomizes map iteration per
	// walk, so any order dependence would flake here immediately.
	for i := 0; i < 50; i++ {
		if got := canonicalString("m", m1); got != want {
			t.Fatalf("rendering %d drifted:\n%s", i, got)
		}
	}
}

// TestSpecHashFieldSensitivity proves the hash moves when any spec
// field moves — page size, fault seed, processor count, problem size,
// backend, scenario name — and stays put for execution-mode knobs,
// which are byte-identical by contract and must share a cache entry.
func TestSpecHashFieldSensitivity(t *testing.T) {
	apps := Apps(1.0)
	base := specJob(t, apps, "EP", "tmk", core.Base(8))
	h0 := SpecHash(base)

	mutate := func(name string, f func(j *Job)) {
		j := base
		f(&j)
		if h := SpecHash(j); h == h0 {
			t.Errorf("%s: hash did not change", name)
		}
	}
	mutate("page size", func(j *Job) { j.Scenario.DSM.PageSize = 1024 })
	mutate("fault seed", func(j *Job) { j.Scenario.Net.Faults.Seed = 1 })
	mutate("loss rate", func(j *Job) { j.Scenario.Net.Faults.Loss = 0.05 })
	mutate("nprocs", func(j *Job) { j.Scenario.Config.Procs = 4 })
	mutate("latency", func(j *Job) { j.Scenario.Net.Latency *= 2 })
	mutate("xdr override", func(j *Job) { j.Scenario.XDRPerByte = 100 })
	mutate("master placement", func(j *Job) { j.Scenario.MasterColocated = true })
	mutate("scenario name", func(j *Job) { j.Scenario.Name = "other" })
	mutate("backend", func(j *Job) { j.Backend = core.PVM })
	mutate("app problem size", func(j *Job) { j.App = Find(Apps(0.5), "EP") })
	mutate("partition window", func(j *Job) {
		j.Scenario.Net.Faults.Partitions = PartitionScenarios(8)[0].Net.Faults.Partitions
	})

	// The engine version prefixes every canonical spec: a model-change
	// bump strands every old hash, by construction.
	if !strings.Contains(canonicalSpec(base), "engine="+EngineVersion+"\n") {
		t.Errorf("canonical spec does not pin the engine version:\n%s", canonicalSpec(base))
	}
}

// TestSpecHashesMatchSpecHash pins SpecHashes to SpecHash over the whole
// selection vocabulary: every app × every backend under every scenario
// set at its default processor counts, plus the bigp registry.  The
// batch form shares one config rendering per scenario; a memo that
// confused two scenarios would show here as a wrong cache key.
func TestSpecHashesMatchSpecHash(t *testing.T) {
	var backends []string
	for _, b := range Backends() {
		backends = append(backends, b.Name())
	}
	lossy := map[string]bool{"loss": true, "dup": true, "reorder": true, "partition": true}
	for _, set := range ScenarioSets() {
		sel := Selection{Backends: backends, Scenarios: []string{set}}
		if lossy[set] || set == "placement" {
			// the tree variants refuse these sets (TestResolveRejectsUnsupportedCombination)
			sel.Backends = []string{"seq", "tmk", "pvm", "pvm-xdr", "tmk-1k", "tmk-sc"}
		}
		g, err := sel.Resolve(0.01)
		if err != nil {
			t.Fatalf("%s: %v", set, err)
		}
		// A repeated scenario takes the memoized rendering path.
		g.Scenarios = append(g.Scenarios, g.Scenarios[0])
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		hashes := SpecHashes(jobs)
		if len(hashes) != len(jobs) {
			t.Fatalf("%s: %d hashes for %d jobs", set, len(hashes), len(jobs))
		}
		for i, j := range jobs {
			if want := SpecHash(j); hashes[i] != want {
				t.Fatalf("%s job %d (%s/%s/%s n=%d): SpecHashes %s, SpecHash %s",
					set, i, j.App.Name(), j.Backend.Name(), j.Scenario.Name, j.Scenario.Procs, hashes[i], want)
			}
		}
	}
}

// TestSpecHashesSameNameDifferentConfig: the memo is keyed by the
// config's value, not by the scenario's name and processor count.
func TestSpecHashesSameNameDifferentConfig(t *testing.T) {
	apps := Apps(0.01)
	a, b := core.Base(8), core.Base(8)
	b.DSM.PageSize = 1024
	jobs := []Job{specJob(t, apps, "EP", "tmk", a), specJob(t, apps, "EP", "tmk", b), specJob(t, apps, "EP", "tmk", a)}
	h := SpecHashes(jobs)
	if h[0] == h[1] || h[0] != h[2] || h[1] != SpecHash(jobs[1]) {
		t.Fatalf("hashes %v: want [x y x] with y the small-page hash %s", h, SpecHash(jobs[1]))
	}
}

// TestResolveRejectsUnsupportedCombination pins the resolve-time guard:
// a backend × scenario pair the system would refuse to build (and panic
// over, mid-grid) is a FieldError before anything runs, and the pairs
// around it still resolve.
func TestResolveRejectsUnsupportedCombination(t *testing.T) {
	for _, backend := range []string{"tmk-tree", "tmk-sc-tree"} {
		for _, set := range []string{"loss", "dup", "reorder", "partition", "placement"} {
			_, err := Selection{Apps: []string{"ep"}, Backends: []string{"pvm", backend}, Scenarios: []string{"base", set}, NProcs: []int{4}}.Resolve(0.01)
			var fe *FieldError
			if !errors.As(err, &fe) || fe.Field != "backends" {
				t.Fatalf("%s × %s: err %v, want a FieldError on backends", backend, set, err)
			}
			if !strings.Contains(err.Error(), backend) || !strings.Contains(err.Error(), "TreeBarrier") {
				t.Errorf("%s × %s: error %q names neither the backend nor the reason", backend, set, err)
			}
		}
		for _, set := range []string{"base", "slow", "lat"} {
			if _, err := (Selection{Backends: []string{backend}, Scenarios: []string{set}}).Resolve(0.01); err != nil {
				t.Errorf("%s × %s: %v", backend, set, err)
			}
		}
	}
	// A partition needs a second node: at one processor the set is fault-free.
	if _, err := (Selection{Backends: []string{"tmk-tree"}, Scenarios: []string{"partition"}, NProcs: []int{1}}).Resolve(0.01); err != nil {
		t.Errorf("tmk-tree × partition at 1 processor: %v", err)
	}
}
