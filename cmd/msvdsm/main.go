// Command msvdsm regenerates the tables and figures of "Message Passing
// Versus Distributed Shared Memory on Networks of Workstations" (SC '95)
// on the simulated workstation cluster, and runs arbitrary experiment
// grids (apps x backends x scenarios) beyond the paper's.
//
// Usage:
//
//	msvdsm table1                # Table 1: sequential times
//	msvdsm table2                # Table 2: messages and data at 8 procs
//	msvdsm fig <name>            # one speedup figure (e.g. fig sor-zero)
//	msvdsm figures               # all twelve speedup figures
//	msvdsm grid [grid flags]     # run a custom grid, emit records
//	msvdsm serve [serve flags]   # HTTP/JSON experiment service with a
//	                             # content-addressed result cache and an
//	                             # optional worker-fleet dispatcher
//	msvdsm worker [worker flags] # join a coordinator's fleet and run
//	                             # leased grid jobs
//	msvdsm ablate                # page-size / MTU ablations, microbenchmarks
//	msvdsm all                   # tables and figures
//	msvdsm list                  # experiment, backend and scenario names
//
// Flags:
//
//	-scale f        workload scale factor (default 1.0 = paper scale;
//	                0.1 runs in seconds for a quick look)
//	-procs n        maximum processor count for figures (default 8)
//	-format f       output format: text, json or csv (default text).
//	                json/csv emit the structured result records behind
//	                the tables and figures.
//	-j n            grid worker pool width (default GOMAXPROCS): runs
//	                are independent engines, so tables, figures and
//	                grids execute up to n runs concurrently.  Output is
//	                byte-identical to -j 1.
//	-cpuprofile f   write a CPU profile of the whole invocation to f
//	                (inspect with 'go tool pprof')
//	-memprofile f   write an allocation profile to f at exit
//
// Grid flags (after the grid command):
//
//	-apps a,b,..      apps to run (default: all twelve)
//	-backends a,b,..  backends (default tmk,pvm; see 'msvdsm list')
//	-scenarios a,..   scenario sets: base, page, mtu, bw, lat, handler,
//	                colocated, placement, the fault axes loss, dup,
//	                reorder, partition, slow (seeded fault injection;
//	                see vnet), and bigp — the procs=16/64/256 scale-out
//	                family, which swaps in re-sized workloads and
//	                defaults -backends to tmk,tmk-sc,tmk-tree,pvm
//	-nprocs 2,4,8     processor counts the scenario sets expand at
//	                (default: each set's own counts — 8 for most,
//	                16,64,256 for bigp)
//
// Serve flags (after the serve command):
//
//	-addr a:p         listen address (default 127.0.0.1:8177)
//	-cache-dir d      persist cached records as <hash>.json files, so a
//	                restarted server stays warm (default: memory only)
//	-cache-entries n  in-memory cache capacity in records (default
//	                65536; 0 = unbounded)
//	-workers          accept a worker fleet: expose the /v1/dispatch
//	                lease API and farm cache-miss jobs to registered
//	                workers, falling back to local compute when none
//	                are live
//	-lease-ttl d      job lease duration before reassignment (10s)
//	-heartbeat d      worker heartbeat interval (2s; liveness is 3x)
//	-drain d          graceful-shutdown drain deadline (15s)
//
// Worker flags (after the worker command):
//
//	-coordinator url  coordinator base URL (required)
//	-name s           worker name in coordinator logs
//	-poll d           lease long-poll duration (2s)
//	-fault-*          deterministic fault injection (crash/stall/reject/
//	                slow on exact job ordinals or seeded rates); the
//	                reliability tests and the CI fleet smoke drive these
//
// The service answers /v1/grid with the same record JSON the grid
// command emits, memoized by a canonical content hash of each job spec;
// the global -scale and -j flags set the server's workload scale and
// cold-path worker pool.  See internal/serve for the API and cache-key
// documentation, and internal/dispatch for the lease protocol and its
// fault-tolerance machinery.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/harness"
	"repro/internal/serve"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper scale)")
	procs := flag.Int("procs", 8, "maximum processor count for figures")
	format := flag.String("format", "text", "output format: text, json or csv")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "grid worker pool width (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write an allocation profile to `file` at exit")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "msvdsm: unknown format %q (have text, json, csv)\n", *format)
		os.Exit(2)
	}
	stopProfiles, perr := startProfiles(*cpuprofile, *memprofile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "msvdsm:", perr)
		os.Exit(1)
	}
	apps := harness.Apps(*scale)
	cmd := strings.ToLower(flag.Arg(0))
	var err error
	switch cmd {
	case "table1":
		err = runTable1(apps, *format, *workers)
	case "table2":
		err = runTable2(apps, *format, *workers)
	case "fig", "figure":
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "msvdsm fig <name>; see 'msvdsm list'")
			stopProfiles()
			os.Exit(2)
		}
		err = runFigures(apps, []string{flag.Arg(1)}, *procs, *format, *workers)
	case "figures":
		err = runFigures(apps, nil, *procs, *format, *workers)
	case "grid":
		err = runGrid(*scale, flag.Args()[1:], *format, *workers)
	case "serve":
		err = runServe(flag.Args()[1:], *scale, *workers)
	case "worker":
		err = runWorker(flag.Args()[1:])
	case "ablate":
		var out string
		out, err = harness.Ablations(*scale)
		if err == nil {
			fmt.Println(out)
		}
	case "all":
		if *format != "text" {
			// One structured document, not three concatenated ones: the
			// figures grid (seq + both systems at 1..procs) is a superset
			// of the tables' records, so emit it once.
			err = runFigures(apps, nil, *procs, *format, *workers)
			break
		}
		if err = runTable1(apps, *format, *workers); err == nil {
			if err = runTable2(apps, *format, *workers); err == nil {
				err = runFigures(apps, nil, *procs, *format, *workers)
			}
		}
	case "list":
		fmt.Println("experiments:")
		for _, n := range harness.Names(apps) {
			fmt.Println("  " + n)
		}
		fmt.Println("backends:")
		for _, b := range harness.Backends() {
			fmt.Println("  " + b.Name())
		}
		fmt.Println("scenario sets:")
		for _, s := range harness.ScenarioSets() {
			fmt.Println("  " + s)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		usage()
		stopProfiles()
		os.Exit(2)
	}
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "msvdsm:", err)
		os.Exit(1)
	}
}

// startProfiles turns on the requested runtime profiles and returns a
// stop function that flushes them.  os.Exit skips deferred calls, so
// every exit path after this point invokes the stop function explicitly
// before exiting — a truncated CPU profile is unreadable.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "msvdsm:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the live set so the profile reflects retained memory
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "msvdsm:", err)
		}
	}, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `msvdsm - PVM vs TreadMarks comparison (SC '95 reproduction)

usage: msvdsm [-scale f] [-procs n] [-format text|json|csv] <command>

commands:
  table1        sequential times of the applications (Table 1)
  table2        messages and data at 8 processors (Table 2)
  fig <name>    one speedup figure (Figures 1-12)
  figures       all twelve speedup figures
  grid          run a custom apps x backends x scenarios grid
                (-apps, -backends, -scenarios, -nprocs; see package doc)
  serve         HTTP/JSON experiment service with a content-addressed
                result cache and optional worker-fleet dispatch
                (-addr, -cache-dir, -cache-entries, -workers)
  worker        join a coordinator's worker fleet (-coordinator url)
  ablate        page-size / MTU ablations and primitive microbenchmarks
  all           tables and figures
  list          experiment, backend and scenario-set names
`)
	flag.PrintDefaults()
}

// emit prints records in the requested structured format, or renders them
// with the given text renderer.
func emit(recs []harness.Record, format string, text func([]harness.Record) string) error {
	switch format {
	case "json":
		return harness.WriteJSON(os.Stdout, recs)
	case "csv":
		return harness.WriteCSV(os.Stdout, recs)
	default:
		fmt.Println(text(recs))
		return nil
	}
}

func runTable1(apps []core.App, format string, workers int) error {
	recs, err := harness.Grid{Apps: apps, Backends: []core.Backend{core.Seq}, Workers: workers}.Run()
	if err != nil {
		return err
	}
	return emit(recs, format, harness.RenderTable1)
}

func runTable2(apps []core.App, format string, workers int) error {
	recs, err := harness.Grid{Apps: apps, Backends: []core.Backend{core.TMK, core.PVM},
		Scenarios: harness.BaseScenarios(8), Workers: workers}.Run()
	if err != nil {
		return err
	}
	return emit(recs, format, harness.RenderTable2)
}

func runFigures(apps []core.App, names []string, maxProcs int, format string, workers int) error {
	selected := apps
	if names != nil {
		selected = nil
		for _, name := range names {
			app := harness.Find(apps, name)
			if app == nil {
				return fmt.Errorf("unknown experiment %q (try 'msvdsm list')", name)
			}
			selected = append(selected, app)
		}
	}
	var procs []int
	for n := 1; n <= maxProcs; n++ {
		procs = append(procs, n)
	}
	recs, err := harness.Grid{Apps: selected, Backends: core.StandardBackends(),
		Scenarios: harness.BaseScenarios(procs...), Workers: workers}.Run()
	if err != nil {
		return err
	}
	return emit(recs, format, func(rs []harness.Record) string {
		var parts []string
		for _, app := range selected {
			fig, err := harness.RenderFigure(rs, app.Name())
			if err != nil {
				parts = append(parts, fmt.Sprintf("%s: %v", app.Name(), err))
				continue
			}
			parts = append(parts, fig.Render())
		}
		return strings.Join(parts, "\n")
	})
}

// runGrid parses the grid command's own flags and runs the described
// cross product.  Selection resolution (names, defaults, bigp registry
// swap, validation errors) lives in harness.Selection, which the serve
// API shares — the two surfaces accept and reject identically.
func runGrid(scale float64, args []string, format string, workers int) error {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	appsFlag := fs.String("apps", "", "comma-separated app names (default: all)")
	backendsFlag := fs.String("backends", "", "comma-separated backend names (default tmk,pvm; bigp: tmk,tmk-sc,tmk-tree,pvm)")
	scenariosFlag := fs.String("scenarios", "base", "comma-separated scenario sets")
	nprocsFlag := fs.String("nprocs", "", "comma-separated processor counts (default: per scenario set)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sel := harness.Selection{
		Apps:      splitList(*appsFlag),
		Backends:  splitList(*backendsFlag),
		Scenarios: splitList(*scenariosFlag),
	}
	if *nprocsFlag != "" {
		for _, s := range strings.Split(*nprocsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -nprocs entry %q (want comma-separated positive counts, e.g. 2,4,8)", s)
			}
			sel.NProcs = append(sel.NProcs, n)
		}
	}

	grid, err := sel.Resolve(scale)
	if err != nil {
		return err
	}
	grid.Workers = workers
	recs, err := grid.Run()
	if err != nil {
		return err
	}
	return emit(recs, format, renderGridTable)
}

// splitList splits a comma-separated flag value, dropping empties.
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

// runServe starts the experiment service: the serve API over this
// invocation's scale and worker pool, backed by a content-addressed
// record cache and, with -workers, fronting a worker fleet through the
// lease dispatcher.  See internal/serve and internal/dispatch.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the dispatcher stops
// leasing and waits for in-flight leases, then http.Server.Shutdown
// drains in-flight requests up to the -drain deadline.  A clean drain
// exits 0; blowing the deadline forces connections closed and exits
// nonzero.  A second signal forces immediate process death.
func runServe(args []string, scale float64, workers int) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8177", "listen address")
	cacheDir := fs.String("cache-dir", "", "persist cached records as <hash>.json files in this directory")
	cacheEntries := fs.Int("cache-entries", 65536, "in-memory cache capacity in records (0 = unbounded)")
	workersAPI := fs.Bool("workers", false, "accept a worker fleet: expose /v1/dispatch and lease cache-miss jobs to registered workers")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "worker job lease duration before reassignment")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "worker heartbeat interval (liveness window is 3x)")
	drainTimeout := fs.Duration("drain", 15*time.Second, "graceful shutdown drain deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := serve.NewStore(*cacheEntries, *cacheDir)
	if err != nil {
		return err
	}
	var dsp *dispatch.Dispatcher
	if *workersAPI {
		dsp = dispatch.New(dispatch.Config{
			LeaseTTL:  *leaseTTL,
			Heartbeat: *heartbeat,
			Logf:      log.Printf,
		})
	}
	srv := serve.New(serve.Options{
		Scale:      scale,
		Workers:    workers,
		Store:      store,
		Dispatcher: dsp,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// A client that never finishes its headers, or an idle
		// keep-alive connection, must not pin a goroutine forever.
		// There is deliberately no overall write timeout: cold grid
		// sweeps stream for as long as the jobs take.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fleet := ""
	if dsp != nil {
		fleet = fmt.Sprintf(", worker fleet on /v1/dispatch (lease ttl %v)", *leaseTTL)
	}
	fmt.Printf("msvdsm serve: engine %s, scale %g, %d workers%s; listening on http://%s\n",
		harness.EngineVersion, scale, workers, fleet, ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		if dsp != nil {
			dsp.Close()
		}
		return err
	case <-sigCtx.Done():
	}
	stop() // restore default handling: a second signal kills immediately
	log.Printf("msvdsm serve: signal received; draining (deadline %v)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if dsp != nil {
		// Stop leasing first so queued jobs bounce back to local
		// compute, then let in-flight leases report their results
		// before the listener goes away.
		dsp.StartDrain()
		if err := dsp.Quiesce(ctx); err != nil {
			log.Printf("msvdsm serve: %d worker leases still in flight at drain deadline", dsp.Stats().LeasesOutstanding)
		}
	}
	shutdownErr := httpSrv.Shutdown(ctx)
	if dsp != nil {
		dsp.Close()
	}
	// The disk cache writes synchronously on every Put, so a clean
	// Shutdown (all in-flight computes finished) implies the cache is
	// flushed; nothing more to persist here.
	if shutdownErr != nil {
		httpSrv.Close()
		return fmt.Errorf("forced shutdown: in-flight requests outlived the %v drain deadline: %w", *drainTimeout, shutdownErr)
	}
	log.Printf("msvdsm serve: clean shutdown")
	return nil
}

// runWorker joins a coordinator's fleet: register, long-poll for job
// leases, run each leased job through the local registries (the spec
// hash check refuses version-skewed work), report records back.
// SIGINT/SIGTERM drains gracefully — announce drain, finish the
// in-flight job, deregister, exit 0; a second signal kills immediately.
// The -fault-* flags are the deterministic fault-injection harness the
// reliability tests and CI drive.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:8177")
	name := fs.String("name", "", "worker name in coordinator logs (default host:pid)")
	poll := fs.Duration("poll", 2*time.Second, "lease long-poll duration")
	faultSeed := fs.Uint64("fault-seed", 0, "seed for the fault-injection rate draws")
	crashOn := fs.Int("fault-crash-on", 0, "crash (no completion, heartbeats stop) on the nth leased job")
	stallOn := fs.Int("fault-stall-on", 0, "stall (hold the lease forever, keep heartbeating) on the nth leased job")
	rejectOn := fs.Int("fault-reject-on", 0, "reject the nth leased job with an injected error")
	rejectRate := fs.Float64("fault-reject-rate", 0, "seeded per-job rejection probability")
	slowRate := fs.Float64("fault-slow-rate", 0, "seeded per-job straggler probability")
	slowDelay := fs.Duration("fault-slow-delay", 0, "injected straggler delay (default 2x lease ttl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("worker: -coordinator is required")
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator: strings.TrimRight(*coordinator, "/"),
		Name:        *name,
		PollWait:    *poll,
		Faults: dispatch.FaultConfig{
			Seed:        *faultSeed,
			CrashOnJob:  *crashOn,
			StallOnJob:  *stallOn,
			RejectOnJob: *rejectOn,
			RejectRate:  *rejectRate,
			SlowRate:    *slowRate,
			SlowDelay:   *slowDelay,
		},
		Logf: log.Printf,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // second signal: default handling, immediate death
	}()
	log.Printf("msvdsm worker %s: joining %s (engine %s)", *name, *coordinator, harness.EngineVersion)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	// A drain signal that lands while the worker is between leases (or
	// mid-retry against a gone coordinator) is a clean exit, not a fault.
	return nil
}

// renderGridTable is the text view of raw grid records.
func renderGridTable(recs []harness.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-12s %6s %14s %10s %12s\n",
		"app", "backend", "scenario", "procs", "time", "messages", "bytes")
	for _, r := range recs {
		fmt.Fprintf(&b, "%-12s %-8s %-12s %6d %14s %10d %12d\n",
			r.App, r.Backend, r.Scenario, r.Procs, r.Time().String(), r.Messages, r.Bytes)
	}
	return strings.TrimRight(b.String(), "\n")
}
