package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Selection names a grid in the user-facing selection vocabulary —
// the `msvdsm grid -apps/-backends/-scenarios/-nprocs` flags and the
// serve API's query parameters both parse into this type through
// ParseSelection (a JSON body decodes into it field by field), so the
// two surfaces resolve and validate identically.
type Selection struct {
	Apps      []string // app names; empty selects the full registry
	Backends  []string // backend names; empty selects tmk,pvm (bigp: tmk,tmk-sc,tmk-tree,pvm)
	Scenarios []string // scenario-set names; empty selects base
	NProcs    []int    // processor counts, 1..MaxProcs; empty selects each set's defaults
}

// MaxProcs bounds the processor counts a selection may name; the largest
// registered cell runs 256.  Past it a count would only size per-node
// state — the slow set's slowdown factors, the simulated processors — in
// whatever process resolves or runs the selection, msvdsm serve included.
const MaxProcs = 1024

// ParseSelection reads a selection written as comma-separated lists, the
// syntax of the grid flags and of /v1/grid query parameters.  Entries
// are trimmed and empty ones dropped; processor counts must parse as
// integers (Resolve checks their range).  The error is a *FieldError.
func ParseSelection(apps, backends, scenarios, nprocs string) (Selection, error) {
	sel := Selection{Apps: splitList(apps), Backends: splitList(backends), Scenarios: splitList(scenarios)}
	for _, s := range splitList(nprocs) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return Selection{}, fieldErr("nprocs", fmt.Errorf("bad nprocs entry %q (want comma-separated processor counts, e.g. 2,4,8)", s))
		}
		sel.NProcs = append(sel.NProcs, n)
	}
	return sel, nil
}

// splitList splits a comma-separated list, trimming entries and dropping
// empty ones.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// FieldError tags a selection error with the request field at fault, so
// the HTTP layer can answer malformed specs with structured 400s while
// the CLI keeps printing the bare message.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return e.Err.Error() }
func (e *FieldError) Unwrap() error { return e.Err }

func fieldErr(field string, err error) error {
	return &FieldError{Field: field, Err: err}
}

// Resolve expands the selection into a concrete Grid against the app
// registry at the given workload scale.  Selecting the bigp scenario
// set anywhere swaps in the re-sized BigApps registry and, when no
// backends were named, the large-P backend comparison.  Every
// resolution error is a *FieldError naming the offending field and the
// valid choices.  The scale must be in (0, 1]: 1 is paper scale, and
// the problem sizes grow with it, so a larger one would size a run past
// any host.
func (sel Selection) Resolve(scale float64) (Grid, error) {
	if !(scale > 0 && scale <= 1) { // NaN fails both comparisons
		return Grid{}, fieldErr("scale", fmt.Errorf("bad scale %g (want a workload scale factor in (0, 1], e.g. 0.1; 1 is paper scale)", scale))
	}
	sets := make([]string, 0, len(sel.Scenarios))
	for _, s := range sel.Scenarios {
		if s = strings.TrimSpace(s); s != "" {
			sets = append(sets, s)
		}
	}
	if len(sets) == 0 {
		sets = []string{"base"}
	}
	bigp := false
	for _, s := range sets {
		if s == "bigp" {
			bigp = true
		}
	}

	apps := Apps(scale)
	if bigp {
		// The scale-out family runs the re-sized workload registry, and
		// unless told otherwise compares the backends the large-P story
		// is about (the tree-barrier variant included).
		apps = BigApps(scale)
	}
	selected := apps
	if len(sel.Apps) > 0 {
		selected = nil
		for _, name := range sel.Apps {
			app := Find(apps, strings.TrimSpace(name))
			if app == nil {
				return Grid{}, fieldErr("apps", fmt.Errorf("unknown experiment %q (have %v)", name, Names(apps)))
			}
			selected = append(selected, app)
		}
	}

	names := sel.Backends
	if len(names) == 0 {
		names = []string{"tmk", "pvm"}
		if bigp {
			names = []string{"tmk", "tmk-sc", "tmk-tree", "pvm"}
		}
	}
	var backends []core.Backend
	for _, name := range names {
		b, err := FindBackend(strings.TrimSpace(name))
		if err != nil {
			return Grid{}, fieldErr("backends", err)
		}
		backends = append(backends, b)
	}

	for _, n := range sel.NProcs {
		if n < 1 || n > MaxProcs {
			return Grid{}, fieldErr("nprocs", fmt.Errorf("bad processor count %d (want counts from 1 to %d, e.g. 2,4,8)", n, MaxProcs))
		}
	}

	var scenarios []core.Scenario
	for _, set := range sets {
		scs, err := ScenarioSet(set, sel.NProcs)
		if err != nil {
			return Grid{}, fieldErr("scenarios", err)
		}
		scenarios = append(scenarios, scs...)
	}

	// A backend that refuses a scenario (the tree-barrier variants on a
	// lossy network) would panic when its job runs; say so here instead.
	for _, b := range backends {
		for _, sc := range scenarios {
			if err := core.Supports(b, sc); err != nil {
				return Grid{}, fieldErr("backends", fmt.Errorf("backend %q cannot run scenario %q at %d processors: %v",
					b.Name(), sc.Name, sc.Procs, err))
			}
		}
	}

	return Grid{Apps: selected, Backends: backends, Scenarios: scenarios}, nil
}
