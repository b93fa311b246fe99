package harness

import (
	"fmt"

	"repro/internal/apps/is"
	"repro/internal/apps/sor"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tmk"
)

// This file holds ablation experiments for the design parameters the
// paper's analysis hinges on: the virtual-memory page size (granularity
// of false sharing), the transport MTU (fragmentation of diff
// accumulation), and the raw protocol costs (barrier and lock latency).
// None of these appear as numbered figures in the paper, but they
// quantify the mechanisms §4 blames for DSM overhead.  The sweeps are
// plain grids: one app, one backend, a scenario axis; the tables are
// views of the records.

// ablationTable renders one sweep's records as (scenario, msgs, KB, sec).
func ablationTable(title string, recs []Record) string {
	tbl := stats.Table{
		Title:  title,
		Header: []string{"Scenario", "Messages", "Kilobytes", "Time(sec)"},
	}
	for _, r := range recs {
		tbl.AddRow(r.Scenario,
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.0f", r.Kilobytes()),
			fmt.Sprintf("%.2f", r.Seconds))
	}
	return tbl.Render()
}

// AblatePageSize reruns SOR-Nonzero under TreadMarks at several page
// sizes: larger pages mean fewer, bigger diffs and more false sharing on
// band boundaries.
func AblatePageSize(scale float64) (string, error) {
	cfg := sor.Paper(false)
	cfg.M = int(float64(cfg.M) * scale)
	if cfg.M < 64 {
		cfg.M = 64
	}
	cfg.Sweeps = 10
	recs, err := Grid{
		Apps:      []core.App{sor.NewApp(cfg)},
		Backends:  []core.Backend{core.TMK},
		Scenarios: PageSizeScenarios(8, 1024, 4096, 16384),
	}.Run()
	if err != nil {
		return "", err
	}
	return ablationTable("Ablation  SOR-Nonzero under TreadMarks vs page size (8 procs)", recs), nil
}

// AblateMTU reruns IS-Large under TreadMarks at several transport MTUs:
// diff accumulation produces multi-page responses, so a small MTU turns
// each into several wire messages (the paper notes the large TreadMarks
// MTU keeps this from being serious).
func AblateMTU(scale float64) (string, error) {
	cfg := is.PaperLarge()
	cfg.Keys = int(float64(cfg.Keys) * scale)
	if cfg.Keys < 1<<12 {
		cfg.Keys = 1 << 12
	}
	cfg.Iters = 4
	recs, err := Grid{
		Apps:      []core.App{is.NewApp(cfg)},
		Backends:  []core.Backend{core.TMK},
		Scenarios: MTUScenarios(8, 4096, 16384, 65536),
	}.Run()
	if err != nil {
		return "", err
	}
	return ablationTable("Ablation  IS-Large under TreadMarks vs transport MTU (8 procs)", recs), nil
}

// MicroBench measures the raw synchronization primitives the paper's
// analysis builds on: n-processor barrier latency and the three-message
// remote lock acquire.
func MicroBench() (string, error) {
	tbl := stats.Table{
		Title:  "Microbenchmarks  TreadMarks primitive latency",
		Header: []string{"Operation", "Procs", "Latency", "Messages"},
	}
	for _, n := range []int{2, 4, 8} {
		res, err := barrierLatency(n)
		if err != nil {
			return "", err
		}
		tbl.AddRow("barrier", fmt.Sprintf("%d", n),
			res.Time.String(), fmt.Sprintf("%d", res.Net.Messages))
	}
	res, err := remoteLockLatency()
	if err != nil {
		return "", err
	}
	tbl.AddRow("remote lock acquire", "2", res.Time.String(),
		fmt.Sprintf("%d", res.Net.Messages))
	res, err = pageFaultLatency()
	if err != nil {
		return "", err
	}
	tbl.AddRow("page fault (4KB diff)", "2", res.Time.String(),
		fmt.Sprintf("%d", res.Net.Messages))
	return tbl.Render(), nil
}

func barrierLatency(n int) (core.Result, error) {
	return core.RunTMK(core.Default(n),
		func(sys *tmk.System) { sys.Malloc(8) },
		func(p *tmk.Proc) { p.Barrier(0) })
}

func remoteLockLatency() (core.Result, error) {
	// Lock 1 is managed (and initially owned) by proc 1; proc 0 acquires
	// it remotely: request + grant.
	return core.RunTMK(core.Default(2),
		func(sys *tmk.System) { sys.Malloc(8) },
		func(p *tmk.Proc) {
			if p.ID() == 0 {
				p.LockAcquire(1)
				p.LockRelease(1)
			}
			// Proc 1's application thread returns immediately; its service
			// daemon answers the request, so the run's time is proc 0's
			// acquire+release latency.
		})
}

func pageFaultLatency() (core.Result, error) {
	var a tmk.Addr
	return core.RunTMK(core.Default(2),
		func(sys *tmk.System) {
			a = sys.MallocPageAligned(4096)
		},
		func(p *tmk.Proc) {
			if p.ID() == 0 {
				arr := p.I64Array(a, 512)
				for i := 0; i < 512; i++ {
					arr.Set(i, int64(i))
				}
			}
			p.Barrier(0)
			if p.ID() == 1 {
				_ = p.ReadI64(a)
			}
		})
}

// Ablations runs every ablation study and concatenates the reports.
func Ablations(scale float64) (string, error) {
	out := ""
	s, err := AblatePageSize(scale)
	if err != nil {
		return "", err
	}
	out += s + "\n"
	s, err = AblateMTU(scale)
	if err != nil {
		return "", err
	}
	out += s + "\n"
	s, err = MicroBench()
	if err != nil {
		return "", err
	}
	out += s
	return out, nil
}
