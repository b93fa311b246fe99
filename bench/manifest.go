package main

import (
	"encoding/json"
	"strconv"
	"strings"
)

// The benchmark's contract with its driver lives in this file: the
// workloads, the end-to-end metrics with their regression bounds, and
// the per-layer metrics.  BENCHMARK.json at the repository root is
// generated from these tables (`-manifest`) and a test pins the two
// together, so a name or bound is stated once.

// runSeconds is the measuring time the driver passes as --seconds.
// Ten seconds fits two paper-scale passes of every grid workload on
// the two-core reference host, and keeps 4+22*7 runs inside the
// driver's time cap.
const runSeconds = 10

type workloadKind int

const (
	kindGrid workloadKind = iota
	kindServe
	kindFleet
)

type workload struct {
	Name string
	Why  string
	Kind workloadKind

	// Grid workloads: the `msvdsm grid` selections one pass runs, each
	// as a fresh child process.
	Grids []selection
	// Scale is the -scale the children run at (1.0 = paper scale).
	Scale float64
}

// selection is the msvdsm grid vocabulary, shared by the CLI flags, the
// HTTP query string and harness.Selection.
type selection struct {
	Apps      []string
	Backends  []string
	Scenarios []string
	NProcs    []int
	Scale     float64 // per-request scale (serve only); 0 = server default
}

var paperApps = []string{
	"EP", "SOR-Zero", "SOR-Nonzero", "IS-Small", "IS-Large", "TSP",
	"QSORT", "Water-288", "Water-1728", "Barnes-Hut", "3D-FFT", "ILINK",
}

var workloads = []workload{
	{
		Name:  "table2-tmk",
		Why:   "Paper Table 2 TreadMarks column at paper scale: tmk diff creation, interval close, fault rounds and the allocator do most of the work.",
		Kind:  kindGrid,
		Scale: 1,
		Grids: []selection{{Backends: []string{"tmk"}, Scenarios: []string{"base"}, NProcs: []int{8}}},
	},
	{
		Name:  "table2-pvm",
		Why:   "Table 1 plus the PVM column: same apps, sim and vnet but zero tmk, so it is the bypass for any DSM optimisation; app bodies dominate.",
		Kind:  kindGrid,
		Scale: 1,
		Grids: []selection{{Backends: []string{"seq", "pvm"}, Scenarios: []string{"base"}, NProcs: []int{8}}},
	},
	{
		Name:  "bigp-scale",
		Why:   "P=64 and P=256 cells: tree barriers, relayed eager invalidation, sparse vector clocks, most sim/vnet events per host second, GB-sized heaps.",
		Kind:  kindGrid,
		Scale: 1,
		Grids: []selection{
			{Apps: []string{"sor-zero", "water-288", "3d-fft", "is-small"}, Backends: []string{"tmk", "tmk-tree", "tmk-sc-tree", "pvm"}, Scenarios: []string{"bigp"}, NProcs: []int{64}},
			{Apps: []string{"sor-zero"}, Backends: []string{"tmk-tree", "pvm"}, Scenarios: []string{"bigp"}, NProcs: []int{256}},
		},
	},
	{
		Name:  "lossy-net",
		Why:   "Same protocols over loss, reorder and partition: vnet fault hashing, tmk at-least-once RPC and pvm ARQ, code that is idle in every other workload.",
		Kind:  kindGrid,
		Scale: 1,
		Grids: []selection{{Apps: []string{"is-small", "water-288", "3d-fft", "ilink"}, Backends: []string{"tmk", "tmk-sc", "pvm"}, Scenarios: []string{"loss", "reorder", "partition"}, NProcs: []int{8}}},
	},
	{
		Name:  "serve-read",
		Why:   "Warm GET /v1/grid and /v1/spec over a pre-warmed store, closed loop, 2 clients: harness resolve and SpecHash, Store.Get, WriteJSON; no simulation.",
		Kind:  kindServe,
		Scale: 0.01,
	},
	{
		Name:  "serve-churn",
		Why:   "80% hot reads beside 20% tail selections on a small memory tier with a disk tier: cold compute, Store.Put, eviction, disk load and re-promotion.",
		Kind:  kindServe,
		Scale: 0.01,
	},
	{
		Name:  "fleet-sweep",
		Why:   "One cold sweep of 528 tiny jobs through a fresh coordinator and 2 worker processes: the only workload where dispatch is a visible share.",
		Kind:  kindFleet,
		Scale: 0.01,
	},
}

// scaleArg is the workload's scale as a -scale flag value.
func (w *workload) scaleArg() string { return strconv.FormatFloat(w.Scale, 'g', -1, 64) }

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the system sees, taken from
// outside the product (child processes timed by the benchmark).  Every
// workload reports every one of them: a "request" is what the user
// waits on — one CLI invocation for a grid workload, one HTTP request
// for a serve or fleet workload — and an operation is one job (grid,
// fleet) or one request (serve).
//
// The bounds are the contract's maximum because the reference host is a
// shared two-vCPU VM whose speed drifts by 10-20% over minutes: ten runs
// of one workload spread (quartile distance over median) by 3-18% on
// every timing, so a tighter bound would reject noise.  README.md has
// the measured spreads.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// backendsTimed are the backends whose median job span is reported.
var backendsTimed = []string{"seq", "tmk", "tmk-sc", "tmk-tree", "tmk-sc-tree", "pvm"}

// layers are the repository's modules plus the Go runtime and whatever
// the profile cannot place (the benchmark's own load generator, net/http
// outside a handler).  cpu_share.* sums to 1 over exactly this list.
var layers = []string{"sim", "vnet", "tmk", "pvm", "apps", "core", "harness", "serve", "dispatch", "runtime", "other"}

// perLayer lists every per-layer metric, from the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
		{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "runtime.sys_cpu_s", Unit: "s", Better: "lower"},
		{Name: "runtime.user_cpu_s", Unit: "s", Better: "lower"},

		{Name: "tmk.fault_round_us", Unit: "us", Better: "lower"},
		{Name: "tmk.fault_round_allocs", Unit: "count", Better: "lower"},
		{Name: "tmk.makediff_sparse_ns", Unit: "ns", Better: "lower"},
		{Name: "tmk.makediff_dense_ns", Unit: "ns", Better: "lower"},
		{Name: "tmk.lock_handoff_us", Unit: "us", Better: "lower"},
		{Name: "tmk.barrier_us_p8", Unit: "us", Better: "lower"},
		{Name: "tmk.barrier_us_p64_tree", Unit: "us", Better: "lower"},
		{Name: "tmk.host_overhead_s", Unit: "s", Better: "lower"},

		{Name: "pvm.pack_ns_per_kb", Unit: "ns/KB", Better: "lower"},
		{Name: "pvm.roundtrip_us_1k", Unit: "us", Better: "lower"},
		{Name: "pvm.roundtrip_us_64k", Unit: "us", Better: "lower"},
		{Name: "pvm.host_overhead_s", Unit: "s", Better: "lower"},

		{Name: "sim.hop_ns", Unit: "ns", Better: "lower"},
		{Name: "sim.wake_ns", Unit: "ns", Better: "lower"},

		{Name: "vnet.msg_ns", Unit: "ns", Better: "lower"},
		{Name: "vnet.msg_allocs", Unit: "count", Better: "lower"},
		{Name: "vnet.msg_ns_lossy", Unit: "ns", Better: "lower"},

		{Name: "harness.resolve_us", Unit: "us", Better: "lower"},
		{Name: "harness.spec_hash_us", Unit: "us", Better: "lower"},
		{Name: "harness.write_json_us_per_record", Unit: "us/record", Better: "lower"},
		{Name: "harness.host_us_per_msg", Unit: "us", Better: "lower"},
		{Name: "harness.pool_speedup_j2", Unit: "ratio", Better: "higher"},
		{Name: "harness.repass_ratio", Unit: "ratio", Better: "lower"},

		{Name: "serve.warm_us_per_record", Unit: "us/record", Better: "lower"},
		{Name: "serve.warm_us_fixed", Unit: "us", Better: "lower"},
		{Name: "serve.warm_allocs_per_req", Unit: "count", Better: "lower"},
		{Name: "serve.warm_kb_per_req", Unit: "KB", Better: "lower"},
		{Name: "serve.spec_us_per_job", Unit: "us/job", Better: "lower"},
		{Name: "serve.store_get_ns", Unit: "ns", Better: "lower"},
		{Name: "serve.store_put_ns", Unit: "ns", Better: "lower"},
		{Name: "serve.store_put_disk_us", Unit: "us", Better: "lower"},
		{Name: "serve.cold_overhead_us_per_job", Unit: "us/job", Better: "lower"},
		{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "serve.evictions", Unit: "count", Better: "lower"},
		{Name: "serve.disk_hits", Unit: "count", Better: "lower"},

		{Name: "dispatch.overhead_us_per_job", Unit: "us/job", Better: "lower"},
		{Name: "dispatch.coord_us_per_job", Unit: "us/job", Better: "lower"},
		{Name: "dispatch.jobref_resolve_us", Unit: "us", Better: "lower"},
		{Name: "dispatch.leases_per_job", Unit: "ratio", Better: "lower"},
		{Name: "dispatch.retries", Unit: "count", Better: "lower"},
		{Name: "dispatch.hedged", Unit: "count", Better: "lower"},
		{Name: "dispatch.fallbacks", Unit: "count", Better: "lower"},

		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "trace.spans", Unit: "count", Better: "lower"},
	}
	for _, app := range paperApps {
		m = append(m, metricDef{Name: "apps.seq_ms." + strings.ToLower(app), Unit: "ms", Better: "lower"})
	}
	for _, b := range backendsTimed {
		m = append(m, metricDef{Name: "harness.job_ms." + b, Unit: "ms", Better: "lower"})
	}
	for _, l := range layers {
		m = append(m, metricDef{Name: "cpu_share." + l, Unit: "ratio", Better: "lower"})
	}
	return m
}

// manifestJSON renders BENCHMARK.json.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(out, '\n')
}
