package harness

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
)

// metric is the triple the paper reports and the simulator guarantees to
// reproduce exactly: modeled time, wire messages, wire bytes.
type metric struct {
	time  int64
	msgs  int64
	bytes int64
}

func capture(t *testing.T, res core.Result, err error) metric {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return metric{time: int64(res.Time), msgs: res.Net.Messages, bytes: res.Net.Bytes}
}

// goldenScale matches BenchScale in bench_test.go: the reduced workloads
// the quick-mode experiments run at.
const goldenScale = 0.1

// goldenProcs are the processor counts each experiment is pinned at.
var goldenProcs = [3]int{2, 4, 8}

// golden pins the modeled metrics of every registered experiment — all 12
// figures of the paper's evaluation — under both systems at 2, 4 and 8
// processors, as produced by the seed implementation.  The scheduler, the
// network layer and the DSM protocol internals may be rewritten freely,
// but these numbers must not move: they are modeled physics, not
// implementation detail.  Regenerate with `go run ./cmd/goldgen -format
// go` only when a change is *supposed* to alter the model.
var golden = map[string]map[string][3]metric{
	"EP": {
		"tmk": {
			{time: 44294244872, msgs: 8, bytes: 636},    // n=2
			{time: 22150492104, msgs: 22, bytes: 2534},  // n=4
			{time: 11083401536, msgs: 50, bytes: 10178}, // n=8
		},
		"pvm": {
			{time: 44292119512, msgs: 1, bytes: 119}, // n=2
			{time: 22146564056, msgs: 3, bytes: 357}, // n=4
			{time: 11074045144, msgs: 7, bytes: 833}, // n=8
		},
	},
	"SOR-Zero": {
		"tmk": {
			{time: 757787500, msgs: 36, bytes: 4031},   // n=2
			{time: 399175212, msgs: 116, bytes: 11569}, // n=4
			{time: 215133748, msgs: 268, bytes: 34665}, // n=8
		},
		"pvm": {
			{time: 733913784, msgs: 9, bytes: 50829},   // n=2
			{time: 382089320, msgs: 27, bytes: 150039}, // n=4
			{time: 198860888, msgs: 63, bytes: 347243}, // n=8
		},
	},
	"SOR-Nonzero": {
		"tmk": {
			{time: 278092884, msgs: 36, bytes: 53030},   // n=2
			{time: 153775264, msgs: 116, bytes: 142246}, // n=4
			{time: 92365120, msgs: 268, bytes: 345013},  // n=8
		},
		"pvm": {
			{time: 251964984, msgs: 9, bytes: 50829},   // n=2
			{time: 132556520, msgs: 27, bytes: 150039}, // n=4
			{time: 71648088, msgs: 63, bytes: 347243},  // n=8
		},
	},
	"IS-Small": {
		"tmk": {
			{time: 112261332, msgs: 24, bytes: 3453},  // n=2
			{time: 69671548, msgs: 75, bytes: 17592},  // n=4
			{time: 66491548, msgs: 184, bytes: 75676}, // n=8
		},
		"pvm": {
			{time: 106309664, msgs: 4, bytes: 2068},  // n=2
			{time: 55658048, msgs: 12, bytes: 6204},  // n=4
			{time: 32996816, msgs: 28, bytes: 14476}, // n=8
		},
	},
	"IS-Large": {
		"tmk": {
			{time: 481394068, msgs: 272, bytes: 340193},    // n=2
			{time: 548430656, msgs: 819, bytes: 1726410},   // n=4
			{time: 1122381048, msgs: 2019, bytes: 5827695}, // n=8
		},
		"pvm": {
			{time: 401228384, msgs: 4, bytes: 524308},   // n=2
			{time: 320360288, msgs: 12, bytes: 1572924}, // n=4
			{time: 410278496, msgs: 28, bytes: 3670156}, // n=8
		},
	},
	"TSP": {
		"tmk": {
			{time: 738599316, msgs: 2172, bytes: 162529}, // n=2
			{time: 768820156, msgs: 2514, bytes: 312457}, // n=4
			{time: 835448984, msgs: 2769, bytes: 645391}, // n=8
		},
		"pvm": {
			{time: 290976208, msgs: 514, bytes: 14493}, // n=2
			{time: 151876100, msgs: 520, bytes: 14547}, // n=4
			{time: 89126024, msgs: 530, bytes: 14637},  // n=8
		},
	},
	"QSORT": {
		"tmk": {
			{time: 1551475200, msgs: 5983, bytes: 1270139},  // n=2
			{time: 2634049774, msgs: 13393, bytes: 3770969}, // n=4
			{time: 3003734094, msgs: 16213, bytes: 8553867}, // n=8
		},
		"pvm": {
			{time: 613030252, msgs: 2749, bytes: 2435773}, // n=2
			{time: 475715660, msgs: 2753, bytes: 2435809}, // n=4
			{time: 470834672, msgs: 2761, bytes: 2435881}, // n=8
		},
	},
	"Water-288": {
		"tmk": {
			{time: 638271160, msgs: 46, bytes: 43098},   // n=2
			{time: 336679364, msgs: 191, bytes: 165592}, // n=4
			{time: 201091064, msgs: 749, bytes: 588499}, // n=8
		},
		"pvm": {
			{time: 626076512, msgs: 8, bytes: 27688},    // n=2
			{time: 315020992, msgs: 32, bytes: 55456},   // n=4
			{time: 161055872, msgs: 128, bytes: 111232}, // n=8
		},
	},
	"Water-1728": {
		"tmk": {
			{time: 991975916, msgs: 20, bytes: 18738},   // n=2
			{time: 504221420, msgs: 69, bytes: 62827},   // n=4
			{time: 265074700, msgs: 208, bytes: 214602}, // n=8
		},
		"pvm": {
			{time: 986125104, msgs: 4, bytes: 24596},  // n=2
			{time: 494310624, msgs: 16, bytes: 49232}, // n=4
			{time: 249184704, msgs: 64, bytes: 98624}, // n=8
		},
	},
	"Barnes-Hut": {
		"tmk": {
			{time: 535524296, msgs: 60, bytes: 47554},    // n=2
			{time: 294617780, msgs: 324, bytes: 148626},  // n=4
			{time: 191233704, msgs: 1428, bytes: 385742}, // n=8
		},
		"pvm": {
			{time: 525227468, msgs: 4, bytes: 85252},    // n=2
			{time: 281397720, msgs: 24, bytes: 255984},  // n=4
			{time: 164027632, msgs: 112, bytes: 598360}, // n=8
		},
	},
	"3D-FFT": {
		"tmk": {
			{time: 65667792, msgs: 36, bytes: 67672},   // n=2
			{time: 46808672, msgs: 108, bytes: 203640}, // n=4
			{time: 44627280, msgs: 252, bytes: 479416}, // n=8
		},
		"pvm": {
			{time: 59108144, msgs: 4, bytes: 65556},    // n=2
			{time: 31559088, msgs: 24, bytes: 98424},   // n=4
			{time: 18655088, msgs: 112, bytes: 115248}, // n=8
		},
	},
	"ILINK": {
		"tmk": {
			{time: 1765544552, msgs: 86, bytes: 103362}, // n=2
			{time: 964795948, msgs: 258, bytes: 297371}, // n=4
			{time: 622960960, msgs: 602, bytes: 683212}, // n=8
		},
		"pvm": {
			{time: 1735865920, msgs: 4, bytes: 85500},  // n=2
			{time: 925943408, msgs: 12, bytes: 226956}, // n=4
			{time: 539828120, msgs: 28, bytes: 495060}, // n=8
		},
	},
}

// goldenGrid is the full pinned grid: all 12 experiments x {tmk,pvm} x
// {2,4,8} processors.  workers widens Grid.Run's pool.
func goldenGrid(workers int) Grid {
	return Grid{
		Apps:      Apps(goldenScale),
		Backends:  []core.Backend{core.TMK, core.PVM},
		Scenarios: BaseScenarios(goldenProcs[:]...),
		Workers:   workers,
	}
}

// checkGolden asserts one pass's metrics against the pinned seed values:
// any drift in Time, Messages or Bytes is a determinism regression in
// the engine, the network model or the DSM protocol.
func checkGolden(t *testing.T, mode string, got map[string]map[string][3]metric) {
	t.Helper()
	for name, systems := range golden {
		for sys, want := range systems {
			for i, n := range goldenProcs {
				if g := got[name][sys][i]; g != want[i] {
					t.Errorf("%s: %s %s n=%d: got %+v, want %+v", mode, name, sys, n, g, want[i])
				}
			}
		}
	}
}

// TestGoldenMetrics pins the serial grid — the same records cmd/goldgen
// dumps, and the oracle the worker pool is differenced against.
func TestGoldenMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden grid in -short mode")
	}
	recs, err := goldenGrid(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "serial", foldRecords(t, recs))
}

// TestGoldenMetricsGridWorkers reruns the full pinned grid through the
// worker-pool grid: the records must be identical to the serial grid's —
// same values in the same order — not merely golden-equal, because
// downstream consumers (tables, goldgen diffs, JSON output) depend on
// enumeration order.
func TestGoldenMetricsGridWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden grid in -short mode")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4 // exercise real pool concurrency even on small hosts
	}
	serial, err := goldenGrid(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := goldenGrid(workers).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(pooled) {
		t.Fatalf("record counts differ: serial %d, workers %d", len(serial), len(pooled))
	}
	for i := range serial {
		if serial[i] != pooled[i] {
			t.Errorf("record %d differs:\nserial  %+v\nworkers %+v", i, serial[i], pooled[i])
		}
	}
	checkGolden(t, "grid-workers", foldRecords(t, pooled))
}

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
		scs := BaseScenarios(2, 4)
		// One lossy cell rides along: recovery traffic (timeouts,
		// retransmissions, ARQ delays) must be just as independent of the
		// pool width as the fault-free runs.
		scs = append(scs, LossScenarios(4, 0.05)...)
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

// foldRecords reshapes grid records into the pinned-table form.
func foldRecords(t *testing.T, recs []Record) map[string]map[string][3]metric {
	t.Helper()
	out := map[string]map[string][3]metric{}
	for _, r := range recs {
		slot := -1
		for i, n := range goldenProcs {
			if r.Procs == n {
				slot = i
			}
		}
		if slot < 0 {
			t.Fatalf("unexpected proc count %d in grid records", r.Procs)
		}
		if out[r.App] == nil {
			out[r.App] = map[string][3]metric{}
		}
		m := out[r.App][r.Backend]
		m[slot] = metric{time: r.TimeNS, msgs: r.Messages, bytes: r.Bytes}
		out[r.App][r.Backend] = m
	}
	return out
}

// TestBackToBackRunsIdentical reruns two representative experiments — a
// barrier-only kernel and a false-sharing-heavy one — and requires
// bit-for-bit identical metrics: the engine must not leak host
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
				r1, err1 := b.Run(app, core.Base(n))
				r2, err2 := b.Run(app, core.Base(n))
				if a, bb := capture(t, r1, err1), capture(t, r2, err2); a != bb {
					t.Errorf("%s %s n=%d: run1 %+v != run2 %+v", name, b.Name(), n, a, bb)
				}
			}
		}
	}
}
