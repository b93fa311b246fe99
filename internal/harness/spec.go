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
// of canonicalSpec.  Equal hashes mean "the engine would produce the
// identical Record", so a memoizing store may answer one job with
// another's cached record.
func SpecHash(j Job) string {
	return hashSpec(j, canonConfig(j.Scenario.Config))
}

// SpecHashes returns SpecHash of every job, in order.  A grid crosses
// each scenario with every app × backend pair, so the config rendering
// — the reflective, expensive half of canonicalSpec — is done once per
// distinct scenario config instead of once per job.
func SpecHashes(jobs []Job) []string {
	type rendered struct {
		cfg  *core.Config
		text string
	}
	var seen []rendered
	hashes := make([]string, len(jobs))
	for i := range jobs {
		cfg := &jobs[i].Scenario.Config
		text := ""
		for _, r := range seen {
			// Procs rejects most non-matches cheaply; DeepEqual is the proof.
			if r.cfg.Procs == cfg.Procs && reflect.DeepEqual(r.cfg, cfg) {
				text = r.text
				break
			}
		}
		if text == "" {
			text = canonConfig(*cfg)
			seen = append(seen, rendered{cfg, text})
		}
		hashes[i] = hashSpec(jobs[i], text)
	}
	return hashes
}

func hashSpec(j Job, config string) string {
	spec := make([]byte, 0, 128+len(config)) // the header lines come to about a hundred bytes
	sum := sha256.Sum256(appendSpec(spec, j, config))
	return hex.EncodeToString(sum[:])
}

// canonicalSpec renders a grid job in the canonical text form SpecHash
// digests; the serve API's /v1/spec endpoint returns hashes derived from
// exactly this string.
func canonicalSpec(j Job) string {
	return string(appendSpec(nil, j, canonConfig(j.Scenario.Config)))
}

// appendSpec appends the canonical spec: the identity header lines,
// then the scenario config as canonConfig rendered it.
func appendSpec(b []byte, j Job, config string) []byte {
	for _, kv := range [...][2]string{
		{"engine=", EngineVersion},
		{"app=", j.App.Name()},
		{"problem=", j.App.Problem()},
		{"backend=", j.Backend.Name()},
		{"scenario=", j.Scenario.Name},
	} {
		b = append(append(append(b, kv[0]...), kv[1]...), '\n')
	}
	return append(b, config...)
}

// canonConfig is the one rendering of a scenario config every spec hash
// goes through.
func canonConfig(cfg core.Config) string { return canonicalString("config", cfg) }

// canonicalString renders any config-like value (structs, maps, slices,
// scalars) in the canonical form canonicalSpec uses for the scenario
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
