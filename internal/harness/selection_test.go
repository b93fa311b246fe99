package harness

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzSelectionResolve builds a Selection from fuzzed comma-separated
// apps, backends, scenario sets and processor counts — what `msvdsm grid`
// flags and /v1/grid queries carry — and resolves it.  Resolve must not
// panic; its error is nil or a *FieldError; and on success every
// backend can run every scenario (core.Supports), so a combination the
// DSM refuses, like a tree barrier on a lossy network, never resolves
// into jobs that would panic when run, and every job gets a spec hash.
// The seed corpus in testdata/fuzz holds valid selections, the
// tree-on-loss refusal and unknown names.
func FuzzSelectionResolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, apps, backends, scenarios, nprocs string) {
		var sel Selection
		for _, l := range []struct {
			in  string
			out *[]string
		}{{apps, &sel.Apps}, {backends, &sel.Backends}, {scenarios, &sel.Scenarios}} {
			if l.in != "" {
				*l.out = strings.Split(l.in, ",")
			}
		}
		if nprocs != "" {
			for _, s := range strings.Split(nprocs, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n > 1024 {
					// Counts parse before Resolve sees them, and a huge one
					// only sizes per-node slices (the slow set's factors).
					t.Skip()
				}
				sel.NProcs = append(sel.NProcs, n)
			}
		}
		if len(sel.Apps) > 4 || len(sel.Backends) > 4 || len(sel.Scenarios) > 4 || len(sel.NProcs) > 4 {
			t.Skip() // keeps the grid, and so SpecHashes, small
		}
		g, err := sel.Resolve(0.01)
		if err != nil {
			var fe *FieldError
			if !errors.As(err, &fe) || error(fe) != err {
				t.Fatalf("Resolve error %T is not a *FieldError: %v", err, err)
			}
			return
		}
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatalf("resolved grid does not enumerate: %v", err)
		}
		for _, j := range jobs {
			if err := core.Supports(j.Backend, j.Scenario); err != nil {
				t.Fatalf("resolved job %s/%s/%s at %d processors is unsupported: %v",
					j.App.Name(), j.Backend.Name(), j.Scenario.Name, j.Scenario.Procs, err)
			}
		}
		hashes := SpecHashes(jobs)
		if len(hashes) != len(jobs) {
			t.Fatalf("%d spec hashes for %d jobs", len(hashes), len(jobs))
		}
		for i, h := range hashes {
			if h == "" {
				t.Fatalf("job %d has no spec hash", i)
			}
		}
	})
}
