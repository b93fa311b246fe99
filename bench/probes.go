package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/harness"
	"repro/internal/pvm"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vnet"
)

// Layer probes: small drivers that put one layer's hot path under a
// stopwatch from outside the package, through public API that later
// changes are expected to keep (systems are built with core.RunTMK /
// core.RunPVM and the harness registries; nothing the roadmap lists for
// deletion is referenced).  Every traced run executes all of them, so a
// per-layer number exists beside every workload's shares; each takes a
// fixed amount of work and a fraction of a second.

// timed runs fn and returns host time and heap allocations.
func timed(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

// bestOf repeats a probe and keeps the fastest repeat: a probe is a
// fixed piece of work, so everything above the minimum is interference.
func bestOf(n int, fn func()) (time.Duration, uint64) {
	best, allocs := time.Duration(0), uint64(0)
	for i := 0; i < n; i++ {
		d, a := timed(fn)
		if i == 0 || d < best {
			best, allocs = d, a
		}
	}
	return best, allocs
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench probe: %v", err))
	}
}

// probeSim: two procs hand a turn back and forth through a Source
// (ns per scheduling hop), and a notifier wakes 64 waiters per round
// (ns per wake-up).
func probeSim(m map[string]float64) {
	const hops = 200_000
	d, _ := bestOf(3, func() {
		e := sim.NewEngine()
		var src [2]sim.Source
		turn := 0
		var at sim.Time
		for id := 0; id < 2; id++ {
			e.Spawn(fmt.Sprintf("p%d", id), false, func(c *sim.Ctx) {
				for r := 0; r < hops/2; r++ {
					c.WaitOn(&src[id], "turn", func() (sim.Time, bool) { return at, turn == id })
					c.Compute(sim.Microsecond)
					turn, at = 1-id, c.Now()
					src[1-id].Notify()
				}
			})
		}
		must(e.Run())
	})
	m["sim.hop_ns"] = float64(d.Nanoseconds()) / hops

	const waiters, rounds = 64, 2000
	d, _ = bestOf(3, func() {
		e := sim.NewEngine()
		var wake, quorum sim.Source
		wake.Stable = true // the round only grows and its wake time is fixed
		round, done := 0, 0
		var at sim.Time
		for i := 0; i < waiters; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), false, func(c *sim.Ctx) {
				for seen := 0; seen < rounds; seen++ {
					c.WaitOn(&wake, "round", func() (sim.Time, bool) { return at, round > seen })
					if done++; done == waiters {
						quorum.Notify()
					}
				}
			})
		}
		e.Spawn("notifier", false, func(c *sim.Ctx) {
			for r := 0; r < rounds; r++ {
				c.Compute(sim.Microsecond)
				round, at, done = round+1, c.Now(), 0
				wake.Notify()
				c.WaitOn(&quorum, "quorum", func() (sim.Time, bool) { return at, done == waiters })
			}
		})
		must(e.Run())
	})
	m["sim.wake_ns"] = float64(d.Nanoseconds()) / (waiters * rounds)
}

// vnetRing passes a 64-byte token round a ring of 8 endpoints.
func vnetRing(cfg vnet.Config, datagram bool, laps int) {
	const procs = 8
	n := vnet.New(cfg)
	e := sim.NewEngine()
	eps := make([]*vnet.Endpoint, procs)
	for i := range eps {
		eps[i] = n.NewEndpoint(i, datagram)
	}
	payload := make([]byte, 64)
	for id := 0; id < procs; id++ {
		e.Spawn(fmt.Sprintf("p%d", id), false, func(c *sim.Ctx) {
			prev, next := (id+procs-1)%procs, (id+1)%procs
			if id == 0 {
				eps[0].Send(c, eps[next], 1, payload)
			}
			for r := 0; r < laps; r++ {
				eps[id].Free(c, eps[id].Recv(c, prev, 1))
				if id == 0 && r == laps-1 {
					break // final hop: stop the token
				}
				eps[id].Send(c, eps[next], 1, payload)
			}
		})
	}
	must(e.Run())
}

// probeVnet: host ns and allocations per message on the ring, clean and
// over a 5%-loss network (stream endpoints, so the transport's ARQ
// recovers and the token survives).
func probeVnet(m map[string]float64) {
	const laps = 20_000
	d, allocs := bestOf(3, func() { vnetRing(vnet.FDDI(), true, laps) })
	m["vnet.msg_ns"] = float64(d.Nanoseconds()) / (8 * laps)
	m["vnet.msg_allocs"] = float64(allocs) / (8 * laps)
	lossy := vnet.FDDI()
	lossy.Faults.Loss = 0.05
	lossy.Faults.Seed = 1995
	d, _ = bestOf(3, func() { vnetRing(lossy, false, laps) })
	m["vnet.msg_ns_lossy"] = float64(d.Nanoseconds()) / (8 * laps)
}

func runTMK(procs int, dsm tmk.Config, setup func(*tmk.System), body func(*tmk.Proc)) {
	cfg := core.Default(procs)
	cfg.DSM = dsm
	_, err := core.RunTMK(cfg, setup, body)
	must(err)
}

// probeTMK: the fault round (proc 0 writes a word on each of 8 pages,
// barrier, proc 1 reads them all: 8 access faults with their diff
// requests), a lock hand-off between two procs, a barrier round with
// every proc closing an interval on its own page at P=8 (central
// manager) and P=64 (radix-2 tree), and MakeDiff on a sparse and a
// fully rewritten 4 KB page.
func probeTMK(m map[string]float64) {
	const pages, rounds = 8, 3000
	var base tmk.Addr
	d, allocs := bestOf(3, func() {
		runTMK(2, tmk.DefaultConfig(),
			func(s *tmk.System) { base = s.MallocPageAligned(4096 * pages) },
			func(p *tmk.Proc) {
				for r := 0; r < rounds; r++ {
					if p.ID() == 0 {
						for pg := 0; pg < pages; pg++ {
							p.WriteI64(base+tmk.Addr(pg*4096), int64(r+pg))
						}
					}
					p.Barrier(2 * r)
					if p.ID() == 1 {
						for pg := 0; pg < pages; pg++ {
							if got := p.ReadI64(base + tmk.Addr(pg*4096)); got != int64(r+pg) {
								panic(fmt.Sprintf("bench probe: fault round %d page %d read %d", r, pg, got))
							}
						}
					}
					p.Barrier(2*r + 1)
				}
			})
	})
	m["tmk.fault_round_us"] = float64(d.Microseconds()) / rounds
	m["tmk.fault_round_allocs"] = float64(allocs) / rounds

	const handoffs = 10_000
	d, _ = bestOf(3, func() {
		runTMK(2, tmk.DefaultConfig(),
			func(s *tmk.System) { base = s.MallocPageAligned(4096) },
			func(p *tmk.Proc) {
				for r := 0; r < handoffs/2; r++ {
					p.LockAcquire(0)
					p.WriteI64(base, p.ReadI64(base)+1)
					p.LockRelease(0)
					p.Compute(sim.Millisecond) // let the other proc ask for the lock
				}
			})
	})
	m["tmk.lock_handoff_us"] = float64(d.Microseconds()) / handoffs

	barrier := func(procs, rounds int, dsm tmk.Config) time.Duration {
		d, _ := bestOf(3, func() {
			runTMK(procs, dsm,
				func(s *tmk.System) { base = s.MallocPageAligned(4096 * procs) },
				func(p *tmk.Proc) {
					for r := 0; r < rounds; r++ {
						p.WriteI64(base+tmk.Addr(p.ID()*4096), int64(r))
						p.Barrier(r)
					}
				})
		})
		return d
	}
	m["tmk.barrier_us_p8"] = float64(barrier(8, 2000, tmk.DefaultConfig()).Microseconds()) / 2000
	tree := tmk.DefaultConfig()
	tree.TreeBarrier = 2
	m["tmk.barrier_us_p64_tree"] = float64(barrier(64, 50, tree).Microseconds()) / 50

	twin := make([]byte, 4096)
	sparse := make([]byte, 4096)
	dense := make([]byte, 4096)
	for i := range dense {
		dense[i] = byte(i) | 1
	}
	for w := 0; w < 16; w++ {
		sparse[w*256+8] = 0xff // 16 isolated words
	}
	const diffs = 20_000
	var sink *tmk.Diff
	d, _ = bestOf(3, func() {
		for i := 0; i < diffs; i++ {
			sink = tmk.MakeDiff(0, twin, sparse)
		}
	})
	m["tmk.makediff_sparse_ns"] = float64(d.Nanoseconds()) / diffs
	d, _ = bestOf(3, func() {
		for i := 0; i < diffs; i++ {
			sink = tmk.MakeDiff(0, twin, dense)
		}
	})
	m["tmk.makediff_dense_ns"] = float64(d.Nanoseconds()) / diffs
	_ = sink
}

// probePVM: packing an 8 KB float64 array into a fresh send buffer, and
// a two-process round trip with 1 KB and 64 KB payloads.
func probePVM(m map[string]float64) {
	const packs = 10_000
	vals := make([]float64, 1024)
	d, _ := bestOf(3, func() {
		_, err := core.RunPVM(core.Default(1), nil, func(p *pvm.Proc) {
			for i := 0; i < packs; i++ {
				p.InitSend().PackFloat64(vals, len(vals), 1)
			}
		}, nil)
		must(err)
	})
	m["pvm.pack_ns_per_kb"] = float64(d.Nanoseconds()) / (packs * 8)

	roundTrip := func(size, trips int) float64 {
		payload := make([]byte, size)
		d, _ := bestOf(3, func() {
			_, err := core.RunPVM(core.Default(2), nil, func(p *pvm.Proc) {
				for i := 0; i < trips; i++ {
					if p.ID() == 0 {
						p.InitSend().PackBytes(payload)
						p.Send(1, 1)
						p.Recv(1, 2).UnpackBytes(size)
					} else {
						got := p.Recv(0, 1).UnpackBytes(size)
						p.InitSend().PackBytes(got)
						p.Send(0, 2)
					}
				}
			}, nil)
			must(err)
		})
		return float64(d.Microseconds()) / float64(trips)
	}
	m["pvm.roundtrip_us_1k"] = roundTrip(1024, 10_000)
	m["pvm.roundtrip_us_64k"] = roundTrip(64*1024, 500)
}

// figureSelection is the 204-record figure grid the harness and serve
// probes share; oneRecord is the smallest possible request.
var (
	figureSelection = selection{Backends: stdBackends, Scenarios: []string{"base"}, NProcs: allProcs}
	oneRecord       = selection{Apps: []string{"EP"}, Backends: []string{"pvm"}, Scenarios: []string{"base"}, NProcs: []int{2}}
)

const probeScale = 0.01

// probeHarness: resolving the figure selection, hashing one job spec,
// encoding the figure's records.
func probeHarness(m map[string]float64) (jobs []harness.Job, recs []harness.Record) {
	const resolves = 200
	sel := figureSelection.harnessSelection()
	d, _ := bestOf(3, func() {
		for i := 0; i < resolves; i++ {
			g, err := sel.Resolve(probeScale)
			must(err)
			jobs, err = g.Jobs()
			must(err)
		}
	})
	m["harness.resolve_us"] = float64(d.Microseconds()) / resolves

	var sink string
	d, _ = bestOf(3, func() {
		for _, j := range jobs {
			sink = harness.SpecHash(j)
		}
	})
	_ = sink
	m["harness.spec_hash_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(jobs))

	recs, err := harness.RunJobs(jobs, 2, nil)
	must(err)
	const encodes = 50
	d, _ = bestOf(3, func() {
		for i := 0; i < encodes; i++ {
			must(harness.WriteJSON(io.Discard, recs))
		}
	})
	m["harness.write_json_us_per_record"] = float64(d.Nanoseconds()) / 1e3 / float64(encodes*len(recs))
	return jobs, recs
}

// sinkWriter is a reusable in-memory http.ResponseWriter, so handler
// probes measure the handler and not a recorder.
type sinkWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func newSinkWriter() *sinkWriter { return &sinkWriter{header: http.Header{}} }

func (w *sinkWriter) Header() http.Header         { return w.header }
func (w *sinkWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *sinkWriter) WriteHeader(status int)      { w.status = status }
func (w *sinkWriter) reset() {
	clear(w.header)
	w.body.Reset()
	w.status = http.StatusOK
}

// serveGet runs one GET through the handler in-process.
func serveGet(h http.Handler, w *sinkWriter, target string) {
	w.reset()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	if w.status != http.StatusOK {
		panic(fmt.Sprintf("bench probe: GET %s: status %d: %.200s", target, w.status, w.body.Bytes()))
	}
}

// probeServe: the store alone (memory Get and Put, Put with the disk
// tier), then the handler: a warm one-record request (the fixed cost),
// a warm 204-record request (per-record cost, allocations and bytes per
// request), /v1/spec per job, and what a cold request costs beyond the
// Job.Run of its jobs.
func probeServe(e *env, m map[string]float64, jobs []harness.Job, recs []harness.Record) {
	hashes := make([]string, len(jobs))
	for i, j := range jobs {
		hashes[i] = harness.SpecHash(j)
	}
	const storeOps = 200
	store, err := serve.NewStore(0, "")
	must(err)
	d, _ := bestOf(3, func() {
		for r := 0; r < storeOps; r++ {
			for i, h := range hashes {
				store.Put(h, recs[i])
			}
		}
	})
	m["serve.store_put_ns"] = float64(d.Nanoseconds()) / float64(storeOps*len(hashes))
	d, _ = bestOf(3, func() {
		for r := 0; r < storeOps; r++ {
			for _, h := range hashes {
				if _, ok := store.Get(h); !ok {
					panic("bench probe: store lost a record")
				}
			}
		}
	})
	m["serve.store_get_ns"] = float64(d.Nanoseconds()) / float64(storeOps*len(hashes))

	dir := filepath.Join(e.out, "probe-store")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	disk, err := serve.NewStore(0, dir)
	must(err)
	d, _ = bestOf(3, func() {
		for i, h := range hashes {
			disk.Put(h, recs[i])
		}
	})
	m["serve.store_put_disk_us"] = float64(d.Microseconds()) / float64(len(hashes))

	// The handler over a store holding the figure grid.
	h := serve.New(serve.Options{Scale: probeScale, Workers: 2, Store: store}).Handler()
	w := newSinkWriter()
	one, fig := "/v1/grid?"+oneRecord.query(), "/v1/grid?"+figureSelection.query()
	serveGet(h, w, one) // computes the one record should the figure not hold it
	const warm = 100
	dOne, _ := bestOf(3, func() {
		for i := 0; i < warm; i++ {
			serveGet(h, w, one)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dFig, _ := bestOf(1, func() {
		for i := 0; i < warm; i++ {
			serveGet(h, w, fig)
		}
	})
	runtime.ReadMemStats(&after)
	nrec := len(recs)
	m["serve.warm_us_fixed"] = float64(dOne.Microseconds()) / warm
	m["serve.warm_us_per_record"] = float64((dFig - dOne).Microseconds()) / float64(warm*(nrec-1))
	m["serve.warm_allocs_per_req"] = float64(after.Mallocs-before.Mallocs) / warm
	m["serve.warm_kb_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / warm
	spec := "/v1/spec?" + figureSelection.query()
	d, _ = bestOf(3, func() {
		for i := 0; i < warm/4; i++ {
			serveGet(h, w, spec)
		}
	})
	m["serve.spec_us_per_job"] = float64(d.Microseconds()) / float64(warm/4*len(jobs))

	// Cold: five of the cheapest jobs (EP) through a serial server with an
	// empty store, against the bare Job.Run of the same jobs.  The jobs
	// are cheap so that the service's share is visible, and each side is
	// the fastest of many interleaved repeats because the difference of
	// two timings is otherwise lost in host noise.
	coldSel := selection{Apps: []string{"EP"}, Backends: stdBackends, Scenarios: []string{"base"}, NProcs: []int{1, 2}}
	g, err := coldSel.harnessSelection().Resolve(probeScale)
	must(err)
	coldJobs, err := g.Jobs()
	must(err)
	var bare, cold time.Duration
	for rep := 0; rep < 60; rep++ {
		start := time.Now()
		for _, j := range coldJobs {
			if c, ok := j.App.(core.Cloneable); ok {
				j.App = c.Clone() // as the server's cold path does
			}
			_, err := j.Run()
			must(err)
		}
		mid := time.Now()
		empty, err := serve.NewStore(0, "")
		must(err)
		serveGet(serve.New(serve.Options{Scale: probeScale, Workers: 1, Store: empty}).Handler(), w, "/v1/grid?"+coldSel.query())
		end := time.Now()
		if d := mid.Sub(start); rep == 0 || d < bare {
			bare = d
		}
		if d := end.Sub(mid); rep == 0 || d < cold {
			cold = d
		}
	}
	m["serve.cold_overhead_us_per_job"] = float64((cold - bare).Nanoseconds()) / 1e3 / float64(len(coldJobs))
}

// probeDispatch: the coordinator alone, in-process, no HTTP and no
// compute — Do blocks on one goroutine per job while a single worker
// loop leases and completes with a canned record — and one JobRef
// resolution against the fleet-sweep selection.
func probeDispatch(m map[string]float64, jobs []harness.Job, recs []harness.Record) {
	d, _ := bestOf(3, func() {
		dsp := dispatch.New(dispatch.Config{})
		defer dsp.Close()
		id, _, _ := dsp.Register("probe")
		byHash := make(map[string]*harness.Record, len(jobs))
		var wg sync.WaitGroup
		errs := make(chan error, len(jobs)) // one send per Do at most
		for i, j := range jobs {
			hash := harness.SpecHash(j)
			byHash[hash] = &recs[i]
			ref := dispatch.JobRef{Backends: figureSelection.Backends, Scenarios: figureSelection.Scenarios,
				NProcs: figureSelection.NProcs, Scale: probeScale, Index: i}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := dsp.Do(context.Background(), ref, hash); err != nil {
					errs <- fmt.Errorf("dispatch.Do: %w", err)
				}
			}()
		}
		for done := 0; done < len(jobs); {
			g, err := dsp.Lease(id, time.Second)
			must(err)
			if g == nil {
				continue
			}
			if _, err := dsp.Complete(id, g.LeaseID, g.Hash, byHash[g.Hash], ""); err != nil {
				panic(fmt.Sprintf("bench probe: dispatch.Complete: %v", err))
			}
			done++
		}
		wg.Wait()
		close(errs)
		must(<-errs)
	})
	m["dispatch.coord_us_per_job"] = float64(d.Microseconds()) / float64(len(jobs))

	sel := fleetSelection.harnessSelection()
	g, err := sel.Resolve(probeScale)
	must(err)
	fleetJobs, err := g.Jobs()
	must(err)
	idx := len(fleetJobs) / 2
	ref := dispatch.JobRef{Backends: fleetSelection.Backends, Scenarios: fleetSelection.Scenarios,
		NProcs: fleetSelection.NProcs, Scale: probeScale, Index: idx}
	hash := harness.SpecHash(fleetJobs[idx])
	const resolves = 100
	d, _ = bestOf(3, func() {
		for i := 0; i < resolves; i++ {
			_, err := ref.Resolve(hash)
			must(err)
		}
	})
	m["dispatch.jobref_resolve_us"] = float64(d.Microseconds()) / resolves
}

// runProbes executes every layer probe.  A probe that panics (an API it
// drives misbehaved) is reported as an error, not a crash.
func runProbes(e *env) (m map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	m = map[string]float64{}
	probeSim(m)
	probeVnet(m)
	probeTMK(m)
	probePVM(m)
	jobs, recs := probeHarness(m)
	probeServe(e, m, jobs, recs)
	probeDispatch(m, jobs, recs)
	for name := range m {
		if !strings.Contains(name, ".") {
			panic("bench: probe metric without a layer: " + name)
		}
	}
	return m, nil
}
