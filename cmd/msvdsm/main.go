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
//	-fault-crash-on n, -fault-stall-on n, -fault-reject-on n
//	                  deterministic fault injection: crash, stall or
//	                reject on the nth leased job; TestFleetWorkerLoss
//	                drives -fault-stall-on
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
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/harness"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// invocation is one run of the command: its global flags and the
// streams it writes to.
type invocation struct {
	scale   float64
	procs   int
	format  string
	workers int
	stdout  io.Writer
	stderr  io.Writer
}

// run executes the command line args and returns the process exit
// code: 0 on success, 1 when the command fails and 2 on a usage error.
// serve and worker run until ctx is done or the process gets SIGINT or
// SIGTERM; every other command runs to completion.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	inv := invocation{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("msvdsm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Float64Var(&inv.scale, "scale", 1.0, "workload scale factor (1.0 = paper scale)")
	fs.IntVar(&inv.procs, "procs", 8, "maximum processor count for figures")
	fs.StringVar(&inv.format, "format", "text", "output format: text, json or csv")
	fs.IntVar(&inv.workers, "j", runtime.GOMAXPROCS(0), "grid worker pool width (1 = serial)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write an allocation profile to `file` at exit")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	switch inv.format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "msvdsm: unknown format %q (have text, json, csv)\n", inv.format)
		return 2
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "msvdsm:", err)
		return 1
	}
	defer stopProfiles()
	apps := harness.Apps(inv.scale)
	cmd := strings.ToLower(fs.Arg(0))
	switch cmd {
	case "table1":
		err = inv.runGrid(harness.Table1Grid(apps), harness.RenderTable1)
	case "table2":
		err = inv.runGrid(harness.Table2Grid(apps), harness.RenderTable2)
	case "fig", "figure":
		if fs.NArg() < 2 {
			fmt.Fprintln(stderr, "msvdsm fig <name>; see 'msvdsm list'")
			return 2
		}
		app := harness.Find(apps, fs.Arg(1))
		if app == nil {
			err = fmt.Errorf("unknown experiment %q (try 'msvdsm list')", fs.Arg(1))
			break
		}
		err = inv.runGrid(harness.FiguresGrid([]core.App{app}, inv.procs), renderFigures)
	case "figures":
		err = inv.runGrid(harness.FiguresGrid(apps, inv.procs), renderFigures)
	case "grid":
		err = inv.gridCommand(fs.Args()[1:])
	case "serve":
		err = inv.serve(ctx, fs.Args()[1:])
	case "worker":
		err = inv.worker(ctx, fs.Args()[1:])
	case "ablate":
		var out string
		out, err = harness.Ablations(inv.scale)
		if err == nil {
			fmt.Fprintln(stdout, out)
		}
	case "all":
		err = inv.all(apps)
	case "list":
		fmt.Fprintln(stdout, "experiments:")
		for _, n := range harness.Names(apps) {
			fmt.Fprintln(stdout, "  "+n)
		}
		fmt.Fprintln(stdout, "backends:")
		for _, b := range harness.Backends() {
			fmt.Fprintln(stdout, "  "+b.Name())
		}
		fmt.Fprintln(stdout, "scenario sets:")
		for _, s := range harness.ScenarioSets() {
			fmt.Fprintln(stdout, "  "+s)
		}
	default:
		fmt.Fprintf(stderr, "unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "msvdsm:", err)
		return 1
	}
	return 0
}

// startProfiles turns on the requested runtime profiles and returns a
// stop function that flushes them; a truncated CPU profile is
// unreadable.
func startProfiles(cpu, mem string, stderr io.Writer) (func(), error) {
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
			fmt.Fprintln(stderr, "msvdsm:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the live set so the profile reflects retained memory
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(stderr, "msvdsm:", err)
		}
	}, nil
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `msvdsm - PVM vs TreadMarks comparison (SC '95 reproduction)

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
	fs.PrintDefaults()
}

// runGrid executes g on the invocation's pool and writes its records.
func (inv *invocation) runGrid(g harness.Grid, text func([]harness.Record) string) error {
	g.Workers = inv.workers
	recs, err := g.Run()
	if err != nil {
		return err
	}
	return inv.write(recs, text)
}

// write prints recs in the requested structured format, or renders them
// with the given text renderer.
func (inv *invocation) write(recs []harness.Record, text func([]harness.Record) string) error {
	switch inv.format {
	case "json":
		return harness.WriteJSON(inv.stdout, recs)
	case "csv":
		return harness.WriteCSV(inv.stdout, recs)
	default:
		fmt.Fprintln(inv.stdout, text(recs))
		return nil
	}
}

// all runs the jobs of Table 1, Table 2 and the figures as one list, so
// a cell two of them share runs once.  Text output is the three views,
// each rendered from its own grid's records.  Structured output is one
// document: the figures' records, then every table record whose spec
// the figures grid lacks (Table 2's below -procs 8).
func (inv *invocation) all(apps []core.App) error {
	grids := []harness.Grid{harness.Table1Grid(apps), harness.Table2Grid(apps), harness.FiguresGrid(apps, inv.procs)}
	views := []func([]harness.Record) string{harness.RenderTable1, harness.RenderTable2, renderFigures}
	var jobs []harness.Job
	var ends []int
	for _, g := range grids {
		js, err := g.Jobs()
		if err != nil {
			return err
		}
		jobs = append(jobs, js...)
		ends = append(ends, len(jobs))
	}
	recs, err := harness.RunJobs(jobs, inv.workers, nil)
	if err != nil {
		return err
	}
	if inv.format == "text" {
		start := 0
		for i, end := range ends {
			if err := inv.write(recs[start:end], views[i]); err != nil {
				return err
			}
			start = end
		}
		return nil
	}
	tables := ends[1]
	hashes := harness.SpecHashes(jobs)
	have := map[string]bool{}
	for _, h := range hashes[tables:] {
		have[h] = true
	}
	out := slices.Clone(recs[tables:])
	for i, h := range hashes[:tables] {
		if !have[h] {
			have[h] = true
			out = append(out, recs[i])
		}
	}
	return inv.write(out, nil)
}

// renderFigures is the text view of a figures grid: each app's speedup
// figure, in registry order.
func renderFigures(recs []harness.Record) string {
	var parts []string
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.App] {
			continue
		}
		seen[r.App] = true
		fig, err := harness.RenderFigure(recs, r.App)
		if err != nil {
			parts = append(parts, fmt.Sprintf("%s: %v", r.App, err))
			continue
		}
		parts = append(parts, fig.Render())
	}
	return strings.Join(parts, "\n")
}

// gridCommand parses the grid command's own flags and runs the
// described cross product.
func (inv *invocation) gridCommand(args []string) error {
	sel, err := parseGridFlags(args, inv.stderr)
	if err != nil {
		return err
	}
	grid, err := sel.Resolve(inv.scale)
	if err != nil {
		return err
	}
	return inv.runGrid(grid, renderGridTable)
}

// parseGridFlags reads the grid command's flags into a selection,
// printing flag errors and help to output.  Parsing
// (harness.ParseSelection) and resolution (names, defaults, bigp
// registry swap, validation errors) live in harness, which the serve API
// shares — the two surfaces accept and reject identically.
func parseGridFlags(args []string, output io.Writer) (harness.Selection, error) {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	fs.SetOutput(output)
	apps := fs.String("apps", "", "comma-separated app names (default: all)")
	backends := fs.String("backends", "", "comma-separated backend names (default tmk,pvm; bigp: tmk,tmk-sc,tmk-tree,pvm)")
	scenarios := fs.String("scenarios", "base", "comma-separated scenario sets")
	nprocs := fs.String("nprocs", "", "comma-separated processor counts (default: per scenario set)")
	if err := fs.Parse(args); err != nil {
		return harness.Selection{}, err
	}
	return harness.ParseSelection(*apps, *backends, *scenarios, *nprocs)
}

// untilSignal returns a context that is done when parent is, or on the
// first SIGINT or SIGTERM.  Once it is done the two signals get their
// default handling back, so a second one kills the process at once.
func untilSignal(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// serve starts the experiment service: the serve API over this
// invocation's scale and worker pool, backed by a content-addressed
// record cache and, with -workers, fronting a worker fleet through the
// lease dispatcher.  See internal/serve and internal/dispatch.
//
// When ctx is done, or on SIGINT/SIGTERM, it shuts down gracefully: the
// dispatcher stops leasing and waits for in-flight leases, then
// http.Server.Shutdown drains in-flight requests up to the -drain
// deadline.  A clean drain returns nil; blowing the deadline forces
// connections closed and returns an error.  A second signal forces
// immediate process death.
func (inv *invocation) serve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(inv.stderr)
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
	logger := log.New(inv.stderr, "", log.LstdFlags)
	store, err := serve.NewStore(*cacheEntries, *cacheDir)
	if err != nil {
		return err
	}
	var dsp *dispatch.Dispatcher
	if *workersAPI {
		dsp = dispatch.New(dispatch.Config{
			LeaseTTL:  *leaseTTL,
			Heartbeat: *heartbeat,
			Logf:      logger.Printf,
		})
	}
	srv := serve.New(serve.Options{
		Scale:      inv.scale,
		Workers:    inv.workers,
		Store:      store,
		Dispatcher: dsp,
	})
	ctx, stop := untilSignal(ctx)
	defer stop()
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
	fmt.Fprintf(inv.stdout, "msvdsm serve: engine %s, scale %g, %d workers%s; listening on http://%s\n",
		harness.EngineVersion, inv.scale, inv.workers, fleet, ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		if dsp != nil {
			dsp.Close()
		}
		return err
	case <-ctx.Done():
	}
	logger.Printf("msvdsm serve: signal received; draining (deadline %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if dsp != nil {
		// Stop leasing first so queued jobs bounce back to local
		// compute, then let in-flight leases report their results
		// before the listener goes away.
		dsp.StartDrain()
		if err := dsp.Quiesce(drainCtx); err != nil {
			logger.Printf("msvdsm serve: %d worker leases still in flight at drain deadline", dsp.Stats().LeasesOutstanding)
		}
	}
	shutdownErr := httpSrv.Shutdown(drainCtx)
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
	logger.Printf("msvdsm serve: clean shutdown")
	return nil
}

// worker joins a coordinator's fleet: register, long-poll for job
// leases, run each leased job through the local registries (the spec
// hash check refuses version-skewed work), report records back.  When
// ctx is done, or on SIGINT/SIGTERM, it drains gracefully — announce
// drain, finish the in-flight job, deregister, return nil; a second
// signal kills immediately.  The -fault-* flags are the deterministic
// fault-injection harness; TestFleetWorkerLoss drives -fault-stall-on.
func (inv *invocation) worker(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(inv.stderr)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:8177")
	name := fs.String("name", "", "worker name in coordinator logs (default host:pid)")
	poll := fs.Duration("poll", 2*time.Second, "lease long-poll duration")
	crashOn := fs.Int("fault-crash-on", 0, "crash (no completion, heartbeats stop) on the nth leased job")
	stallOn := fs.Int("fault-stall-on", 0, "stall (hold the lease forever, keep heartbeating) on the nth leased job")
	rejectOn := fs.Int("fault-reject-on", 0, "reject the nth leased job with an injected error")
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
	logger := log.New(inv.stderr, "", log.LstdFlags)
	w := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator: strings.TrimRight(*coordinator, "/"),
		Name:        *name,
		PollWait:    *poll,
		Faults: dispatch.FaultConfig{
			CrashOnJob:  *crashOn,
			StallOnJob:  *stallOn,
			RejectOnJob: *rejectOn,
		},
		Logf: logger.Printf,
	})
	ctx, stop := untilSignal(ctx)
	defer stop()
	logger.Printf("msvdsm worker %s: joining %s (engine %s)", *name, *coordinator, harness.EngineVersion)
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
