package harness

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestGridWorkersStress randomizes worker counts (seeded) over a
// smaller grid and requires every pass to reproduce the serial records
// exactly.
func TestGridWorkersStress(t *testing.T) {
	apps := []core.App{}
	for _, name := range []string{"SOR-Zero", "IS-Small", "QSORT"} {
		app := Find(Apps(goldenScale), name)
		if app == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		apps = append(apps, app)
	}
	mk := func(workers int) Grid {
		scs := []core.Scenario{scenario("base", "base", 2), scenario("base", "base", 4)}
		// One lossy cell rides along: recovery traffic (timeouts,
		// retransmissions, ARQ delays) must be just as independent of the
		// pool width as the fault-free runs.
		scs = append(scs, scenario("loss", "loss=0.05", 4))
		return Grid{
			Apps:      apps,
			Backends:  []core.Backend{core.Seq, core.TMK, core.PVM},
			Scenarios: scs,
			Workers:   workers,
		}
	}
	want, err := mk(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9137))
	for round := 0; round < 6; round++ {
		workers := 2 + rng.Intn(14)
		got, err := mk(workers).Run()
		if err != nil {
			t.Fatalf("round %d (workers=%d): %v", round, workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d records, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d (workers=%d) record %d:\ngot  %+v\nwant %+v",
					round, workers, i, got[i], want[i])
			}
		}
	}
}

// TestBackToBackRunsIdentical reruns two representative experiments — a
// barrier-only kernel and a false-sharing-heavy one — and requires
// bit-for-bit identical records: the engine must not leak host
// nondeterminism (goroutine scheduling, map order) into modeled results.
func TestBackToBackRunsIdentical(t *testing.T) {
	apps := Apps(goldenScale)
	for _, name := range []string{"SOR-Zero", "IS-Small"} {
		app := Find(apps, name)
		if app == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		for _, n := range goldenProcs {
			for _, b := range []core.Backend{core.TMK, core.PVM} {
				job := Job{App: app, Backend: b, Scenario: core.Base(n)}
				r1, err1 := job.Run()
				r2, err2 := job.Run()
				if err1 != nil || err2 != nil {
					t.Fatalf("%s %s n=%d: %v, %v", name, b.Name(), n, err1, err2)
				}
				if r1 != r2 {
					t.Errorf("%s %s n=%d: run1 %+v != run2 %+v", name, b.Name(), n, r1, r2)
				}
			}
		}
	}
}
