package main

import (
	"bytes"
	"fmt"
	"time"
)

// The fleet workload, end to end: per sweep a fresh coordinator
// (`msvdsm serve -workers`) and two `msvdsm worker` children with the
// default dispatch.Config, then one cold GET /v1/grid of 528 tiny jobs.
// Every sweep needs its own fleet (the second request would be warm), so
// the set-up repeats with the sweeps and setup_s is their median.

const fleetWorkers = 2

// fleetSelection is all apps x tmk,pvm x base,page,lat x nprocs 2,4:
// 12 * 2 * (1+5+5) * 2 = 528 jobs of a few milliseconds each.
var fleetSelection = selection{
	Backends:  []string{"tmk", "pvm"},
	Scenarios: []string{"base", "page", "lat"},
	NProcs:    []int{2, 4},
}

// fleet is one running coordinator with its workers.
type fleet struct {
	coord   *daemon
	workers []*daemon
}

// startFleet builds, starts the children and waits until every worker
// has registered.
func (e *env) startFleet(w *workload, n int) (*fleet, error) {
	if _, err := e.build(); err != nil {
		return nil, err
	}
	coord, err := e.startServer(fmt.Sprintf("%s-coordinator-%d", w.Name, n), []string{"-scale", w.scaleArg()}, []string{"-workers"})
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord}
	for i := 0; i < fleetWorkers; i++ {
		wk, err := e.startWorker(fmt.Sprintf("%s-worker-%d-%d", w.Name, n, i), coord.addr)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, wk)
	}
	deadline := time.Now().Add(20 * time.Second)
	for serverStats(coord.addr)["dispatch.workers_live"] < fleetWorkers {
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("%s: workers did not register within 20s", w.Name)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f, nil
}

// stop drains workers, then the coordinator, and sums their rusage.
func (f *fleet) stop() (usage, error) {
	var ru usage
	var first error
	for _, d := range append(append([]*daemon{}, f.workers...), f.coord) {
		u, err := d.stop()
		ru.UserS += u.UserS
		ru.SysS += u.SysS
		ru.MaxRSSMB += u.MaxRSSMB // separate processes: their peaks add up
		if err != nil && first == nil {
			first = err
		}
	}
	return ru, first
}

// sweep sends the one cold request and returns its body and duration.
func (f *fleet) sweep(sel selection) ([]byte, time.Duration, error) {
	start := time.Now()
	status, body, err := httpGet(f.coord.addr + "/v1/grid?" + sel.query())
	d := time.Since(start)
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	return body, d, err
}

// localBody is the reference: the same selection through the CLI, no
// service and no fleet.
func (e *env) localBody(w *workload, sel selection) ([]byte, error) {
	args := []string{"-j", "2", "-scale", w.scaleArg(), "-format", "json", "grid"}
	out, _, _, err := e.runCLI(append(args, sel.cliArgs()...)...)
	return out, err
}

// runFleetWorkload is the untraced, end-to-end run of fleet-sweep.
func (e *env) runFleetWorkload(w *workload, budget time.Duration) (*result, error) {
	res := &result{Metrics: map[string]float64{}}
	var setups, walls []float64
	var bodiesSeen [][]byte
	var ru usage
	var stats map[string]float64
	jobs := 0
	for start := time.Now(); len(walls) == 0 || time.Since(start) < budget; {
		t0 := time.Now()
		f, err := e.startFleet(w, len(walls)+1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		body, d, err := f.sweep(fleetSelection)
		stats = serverStats(f.coord.addr)
		u, stopErr := f.stop()
		if err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		if jobs, err = countRecords(body); err != nil {
			return nil, fmt.Errorf("%s: undecodable sweep body: %v", w.Name, err)
		}
		walls = append(walls, d.Seconds())
		bodiesSeen = append(bodiesSeen, body)
		ru.add(u)
	}

	local, err := e.localBody(w, fleetSelection)
	if err != nil {
		return nil, err
	}
	for i, b := range bodiesSeen {
		res.Attempted += jobs
		if !bytes.Equal(b, local) {
			res.Failed += jobs
			res.notef("sweep %d body differs from the local CLI body", i+1)
		}
	}
	res.passMetrics(median(setups), walls, jobs, "sweeps", "sweep", fmt.Sprintf("one sweep through %d workers", fleetWorkers))
	res.notef("records_sha256=%s", sha256Hex(local))
	res.notef("last sweep: dispatched=%.0f fallbacks=%.0f leases_granted=%.0f reassigned=%.0f hedged=%.0f",
		stats["dispatched"], stats["fallbacks"], stats["dispatch.leases_granted"], stats["dispatch.reassigned"], stats["dispatch.hedged"])
	res.notef("children, all sweeps: user=%.2fs sys=%.2fs; largest fleet maxrss=%.0fMB (three processes summed)", ru.UserS, ru.SysS, ru.MaxRSSMB)
	return res, nil
}
