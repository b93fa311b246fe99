package core

import (
	"testing"

	"repro/internal/pvm"
	"repro/internal/sim"
	"repro/internal/tmk"
)

func TestRunSeq(t *testing.T) {
	res, err := RunSeq(func(ctx *sim.Ctx) {
		ctx.Compute(3 * sim.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != 3*sim.Second {
		t.Fatalf("time = %v, want 3s", res.Time)
	}
	if res.Net.Messages != 0 {
		t.Fatalf("sequential run counted traffic: %+v", res.Net)
	}
}

func TestRunTMKCollectsDetail(t *testing.T) {
	cfg := Default(2)
	var addr tmk.Addr
	res, err := RunTMK(cfg,
		func(sys *tmk.System) { addr = sys.Malloc(8) },
		func(p *tmk.Proc) {
			if p.ID() == 0 {
				p.WriteI64(addr, 42)
			}
			p.Barrier(0)
			if got := p.ReadI64(addr); got != 42 {
				t.Errorf("read %d", got)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Messages == 0 {
		t.Fatal("expected barrier traffic")
	}
	if res.Faults != 1 || res.DiffRequests != 1 {
		t.Fatalf("faults=%d diffreqs=%d, want 1 each", res.Faults, res.DiffRequests)
	}
	if res.DiffBytes == 0 {
		t.Fatal("expected diff bytes")
	}
}

// TestScaled pins the quick-mode shrink rule the app registries and the
// ablations share: the product, truncated, and never below min.
func TestScaled(t *testing.T) {
	for _, c := range []struct {
		n         int
		scale     float64
		min, want int
	}{
		{1000, 1, 64, 1000},
		{1000, 0.1, 64, 100},
		{1000, 0.0999, 1, 99},
		{1000, 0.05, 64, 64},
	} {
		if got := Scaled(c.n, c.scale, c.min); got != c.want {
			t.Errorf("Scaled(%d, %g, %d) = %d, want %d", c.n, c.scale, c.min, got, c.want)
		}
	}
}

func TestRunPVMWithMaster(t *testing.T) {
	cfg := Default(2)
	heard := 0
	res, err := RunPVM(cfg, nil,
		func(p *pvm.Proc) {
			r := p.Recv(2, 1) // master has id N
			heard += int(r.UnpackOneInt32())
		},
		func(p *pvm.Proc) {
			for i := 0; i < 2; i++ {
				b := p.InitSend()
				b.PackOneInt32(1)
				p.Send(i, 1)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if heard != 2 {
		t.Fatalf("heard = %d, want 2", heard)
	}
	if res.Net.Messages != 2 {
		t.Fatalf("messages = %d, want 2", res.Net.Messages)
	}
}

func TestRunTMKErrorPropagates(t *testing.T) {
	cfg := Default(1)
	_, err := RunTMK(cfg,
		func(sys *tmk.System) { sys.Malloc(8) },
		func(p *tmk.Proc) { p.LockRelease(99) }) // release without hold
	if err == nil {
		t.Fatal("expected error from protocol violation")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := Default(8)
	if cfg.Procs != 8 || cfg.DSM.PageSize != 4096 || cfg.Net.BytesPerSec <= 0 {
		t.Fatalf("default config %+v", cfg)
	}
}
