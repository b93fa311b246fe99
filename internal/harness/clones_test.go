package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestClonesShareNoRunState runs every registered app's Seq, TMK and PVM
// jobs on two clones of it at once, every app at once, and holds each
// clone's records to a serial run's and each clone's Check to its own
// runs.  Clones share their app's Program, so a Program field a body
// writes is what this test reaches: under -race (a CI step) as a data
// race, without it as a record or an output that moved.
func TestClonesShareNoRunState(t *testing.T) {
	backends := core.StandardBackends()
	jobs := func(app core.App) []Job {
		var js []Job
		for _, b := range backends {
			js = append(js, Job{App: app, Backend: b, Scenario: core.Base(4)})
		}
		return js
	}
	// run runs app's jobs in order (Seq first), checking its output
	// after each parallel one.
	run := func(app core.App) ([]Record, error) {
		var recs []Record
		for _, j := range jobs(app) {
			rec, err := j.Run()
			if err != nil {
				return nil, err
			}
			if !core.IsBaseline(j.Backend) {
				if err := app.Check(); err != nil {
					return nil, fmt.Errorf("%s: %v", j.Backend.Name(), err)
				}
			}
			recs = append(recs, rec)
		}
		return recs, nil
	}

	apps := Apps(0.01)
	want := make([][]Record, len(apps))
	for i, app := range apps {
		recs, err := run(app.Clone())
		if err != nil {
			t.Fatalf("%s serial: %v", app.Name(), err)
		}
		want[i] = recs
	}

	const clones = 2
	got := make([][clones][]Record, len(apps))
	errs := make([][clones]error, len(apps))
	var wg sync.WaitGroup
	for i, app := range apps {
		for c := range clones {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i][c], errs[i][c] = run(app.Clone())
			}()
		}
	}
	wg.Wait()
	for i, app := range apps {
		for c := range clones {
			if errs[i][c] != nil {
				t.Errorf("%s clone %d: %v", app.Name(), c, errs[i][c])
			} else if !reflect.DeepEqual(got[i][c], want[i]) {
				t.Errorf("%s clone %d: records differ from the serial run's:\n  %+v\n  %+v", app.Name(), c, got[i][c], want[i])
			}
		}
	}
}
