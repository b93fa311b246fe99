package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/core"
)

// Content-addressed job specs.
//
// Every run in this reproduction is deterministic — the pinned goldens
// prove bit-identical modeled metrics however jobs are scheduled: one
// after another, on the worker pool, or on a worker fleet — so
// a Record is a pure function of (app, backend, scenario, engine
// version).  SpecHash names that function application: a canonical hash
// of the full job spec, stable across processes and registry instances,
// usable as a cache key by any layer that memoizes records (the serve
// subsystem's store, a future coordinator/worker split).
//
// The canonical form is an order-stable text rendering: fixed header
// lines for the identity fields, then every non-zero leaf of the
// scenario's Config as one "path=value" line with struct fields in
// declaration order and map keys sorted.  Zero-valued leaves are
// omitted, so adding a new config knob whose zero value preserves
// today's behavior does not move existing hashes.  Likewise, removing a
// knob that was zero in every hashed config moves none: the former
// engine-selection flag on core.Config was forced to zero before
// rendering, so it never appeared in a canonical form, and deleting it
// left every hash in place.  One field is deliberately excluded: the
// backend's configuration beyond its name.  A Variant's scenario rewrite
// is a fixed function of its registered name, versioned by EngineVersion
// like every other piece of model code.
//
// EngineVersion ties hashes to the modeled-metrics vintage.  Bump it in
// lockstep with golden regeneration: any PR that changes modeled
// Time/Messages/Bytes (a "model-change" PR regenerating testdata/pins)
// must also bump EngineVersion, so stale cached records from the old
// model can never answer for the new one.  Pure performance work that
// keeps the goldens byte-identical must NOT bump it — warm caches stay
// warm across such releases.

// EngineVersion is the modeled-metrics vintage baked into every spec
// hash.  Bump rule: regenerated goldens => new version; byte-identical
// goldens => same version.
const EngineVersion = "msvdsm-1"

// SpecHash returns the content address of one grid job: the hex SHA-256
// of its canonical spec (appendSpec).  Equal hashes mean "the engine
// would produce the identical Record", so a memoizing store may answer
// one job with another's cached record.
func SpecHash(j Job) string {
	return hashSpec(j, canonConfig(j.Scenario.Config))
}

// SpecHashes returns SpecHash of every job, in order.  A grid crosses
// each scenario with every app × backend pair, so the config rendering
// — the reflective, expensive half of the canonical spec — is done once
// per distinct scenario config instead of once per job.
func SpecHashes(jobs []Job) []string {
	var texts configTexts
	hashes := make([]string, len(jobs))
	for i := range jobs {
		hashes[i] = hashSpec(jobs[i], texts.render(&jobs[i].Scenario.Config))
	}
	return hashes
}

// Run keys.
//
// A spec hash names a job; a run key names the simulation behind it.
// Jobs that differ only in what their backend never reads — PVM under
// each TreadMarks page size, TreadMarks with the PVM master co-located
// — produce the same Record apart from the job's own coordinates
// (Job.Share), so one run answers all of them.  The key is the hex
// SHA-256 of EngineVersion, the app's name and problem, the standard
// adapter that runs the job after any Variant rewrite (core.RunsAs) and
// the config fields that adapter reads, rendered by canonConfig: tmk
// reads Procs, Net and DSM; pvm reads Procs, Net, XDRPerByte and
// MasterColocated; seq reads nothing.  The adapters run with exactly
// that projection, so a key cannot leave out a field a run reads.  A
// backend core does not know has its spec hash as its run key and
// shares with nothing.  Run keys are never stored or sent: they group
// the jobs of one sweep (Runs) and name serve's cold-path flights, and
// spec hashes stay the only cache and wire names.

// RunKeys returns the run key of every job, in order.
func RunKeys(jobs []Job) []string {
	var texts configTexts
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		run, cfg, ok := core.RunsAs(j.Backend, j.Scenario)
		if !ok {
			keys[i] = hashSpec(j, texts.render(&jobs[i].Scenario.Config))
			continue
		}
		config := texts.render(&cfg)
		text := appendHeader(make([]byte, 0, 128+len(config)), [][2]string{
			{"engine=", EngineVersion},
			{"app=", j.App.Name()},
			{"problem=", j.App.Problem()},
			{"run=", run.Name()},
		})
		sum := sha256.Sum256(append(text, config...))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

// Runs groups jobs by their run keys (RunKeys): each group lists the
// indices of the jobs one run answers, in increasing order, and the
// groups are in the order of their first index.  Running a group's
// first job and sharing its record (Job.Share) gives every job in the
// group the record its own Run would.
func Runs(keys []string) [][]int {
	group := make(map[string]int, len(keys))
	var runs [][]int
	for i, k := range keys {
		if g, ok := group[k]; ok {
			runs[g] = append(runs[g], i)
			continue
		}
		group[k] = len(runs)
		runs = append(runs, []int{i})
	}
	return runs
}

// Share returns j's record given rec, the record of a job with j's run
// key: the same measurements under j's own backend, scenario and
// processor count.
func (j Job) Share(rec Record) Record {
	rec.Backend, rec.Scenario, rec.Procs = j.Backend.Name(), j.Scenario.Name, j.Scenario.Procs
	return rec
}

// Names reports whether rec is a record of j: j's app, backend,
// scenario and processor count.
func (j Job) Names(rec Record) bool {
	return rec.App == j.App.Name() && j.Share(rec) == rec
}

// configText is one rendered config.
type configText struct {
	cfg  core.Config
	text string
}

// configTexts memoizes canonConfig over the configs of one job list,
// compared by value.
type configTexts []configText

func (c *configTexts) render(cfg *core.Config) string {
	for i := range *c {
		// Procs rejects most non-matches cheaply; DeepEqual is the proof.
		if r := &(*c)[i]; r.cfg.Procs == cfg.Procs && reflect.DeepEqual(&r.cfg, cfg) {
			return r.text
		}
	}
	text := canonConfig(*cfg)
	*c = append(*c, configText{*cfg, text})
	return text
}

func hashSpec(j Job, config string) string {
	spec := make([]byte, 0, 128+len(config)) // the header lines come to about a hundred bytes
	sum := sha256.Sum256(appendSpec(spec, j, config))
	return hex.EncodeToString(sum[:])
}

// appendSpec appends the canonical spec, the text form SpecHash
// digests: the identity header lines, then the scenario config as
// canonConfig rendered it.  The serve API's /v1/spec endpoint returns
// hashes derived from exactly this text.
func appendSpec(b []byte, j Job, config string) []byte {
	b = appendHeader(b, [][2]string{
		{"engine=", EngineVersion},
		{"app=", j.App.Name()},
		{"problem=", j.App.Problem()},
		{"backend=", j.Backend.Name()},
		{"scenario=", j.Scenario.Name},
	})
	return append(b, config...)
}

// appendHeader appends one "key=value" line per pair.
func appendHeader(b []byte, lines [][2]string) []byte {
	for _, kv := range lines {
		b = append(append(append(b, kv[0]...), kv[1]...), '\n')
	}
	return b
}

// canonConfig is the one rendering of a scenario config every spec hash
// goes through.
func canonConfig(cfg core.Config) string { return canonicalString("config", cfg) }

// canonicalString renders any config-like value (structs, maps, slices,
// scalars) in the canonical form the spec uses for the scenario
// config; map iteration order never leaks into the rendering.
func canonicalString(name string, v any) string {
	var sb strings.Builder
	canonValue(&sb, name, reflect.ValueOf(v))
	return sb.String()
}

// canonValue appends the canonical "path=value" lines of v.  Struct
// fields render in declaration order, slice elements by index, map
// entries sorted by key; zero-valued leaves and empty containers render
// nothing.  Kinds a config struct should never contain (funcs,
// channels, unsafe pointers) panic loudly rather than hash ambiguously.
func canonValue(sb *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			canonValue(sb, path+"."+t.Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if v.Len() == 0 {
			return
		}
		fmt.Fprintf(sb, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			canonValue(sb, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			return
		}
		keys := make([]string, 0, v.Len())
		byKey := make(map[string]reflect.Value, v.Len())
		for _, k := range v.MapKeys() {
			ks := fmt.Sprintf("%v", k.Interface())
			keys = append(keys, ks)
			byKey[ks] = v.MapIndex(k)
		}
		sort.Strings(keys)
		fmt.Fprintf(sb, "%s.len=%d\n", path, v.Len())
		for _, ks := range keys {
			canonValue(sb, path+"["+ks+"]", byKey[ks])
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		canonValue(sb, path, v.Elem())
	case reflect.Bool:
		if v.Bool() {
			fmt.Fprintf(sb, "%s=true\n", path)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if n := v.Int(); n != 0 {
			fmt.Fprintf(sb, "%s=%d\n", path, n)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if n := v.Uint(); n != 0 {
			fmt.Fprintf(sb, "%s=%d\n", path, n)
		}
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); f != 0 {
			fmt.Fprintf(sb, "%s=%g\n", path, f)
		}
	case reflect.String:
		if s := v.String(); s != "" {
			fmt.Fprintf(sb, "%s=%q\n", path, s)
		}
	case reflect.Complex64, reflect.Complex128:
		if c := v.Complex(); c != 0 {
			fmt.Fprintf(sb, "%s=%v\n", path, c)
		}
	default:
		panic(fmt.Sprintf("harness: cannot canonicalize %s (kind %s) in a job spec", path, v.Kind()))
	}
}
