package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Everything about the host and the child processes: where the
// repository is, building msvdsm, running it as a fresh process with
// its rusage, and the hygiene figures printed with every result.

// env is the benchmark's view of its checkout.
type env struct {
	root string // repository root (holds go.mod of module repro)
	bin  string // built msvdsm
	out  string // bench/out: the built msvdsm, traces, child logs, cache directories
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module repro and that holds cmd/msvdsm.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "msvdsm")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside a checkout of module repro (no go.mod with cmd/msvdsm above the working directory)")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root: root,
		out:  filepath.Join(root, "bench", "out"),
	}
	e.bin = filepath.Join(e.out, "msvdsm")
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// build compiles cmd/msvdsm into bench/out and returns how long it
// took.  With an unchanged tree this is the toolchain's up-to-date
// check, which is what every later run in a checkout pays.
func (e *env) build() (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/msvdsm")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/msvdsm: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// usage is a finished child's resource use.
type usage struct {
	UserS, SysS float64
	MaxRSSMB    float64
}

func usageOf(ps *os.ProcessState) usage {
	u := usage{UserS: ps.UserTime().Seconds(), SysS: ps.SystemTime().Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return u
}

func (u *usage) add(o usage) {
	u.UserS += o.UserS
	u.SysS += o.SysS
	u.MaxRSSMB = max(u.MaxRSSMB, o.MaxRSSMB)
}

// children tracks every live child so an error path can stop them all.
var children struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

func trackChild(c *exec.Cmd, live bool) {
	children.Lock()
	defer children.Unlock()
	if children.live == nil {
		children.live = map[*exec.Cmd]bool{}
	}
	if live {
		children.live[c] = true
	} else {
		delete(children.live, c)
	}
}

// killChildren stops whatever is still running; called before exit.
func killChildren() {
	children.Lock()
	var cmds []*exec.Cmd
	for c := range children.live {
		cmds = append(cmds, c)
	}
	children.Unlock()
	for _, c := range cmds {
		c.Process.Kill()
		c.Wait()
		trackChild(c, false)
	}
}

// childCmd prepares msvdsm with the given arguments.  Children die
// with the benchmark even if it is killed.
func (e *env) childCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(e.bin, args...)
	cmd.Dir = e.out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runCLI runs one msvdsm invocation to completion as a fresh process
// and returns its stdout, wall time and rusage.
func (e *env) runCLI(args ...string) ([]byte, time.Duration, usage, error) {
	cmd := e.childCmd(args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, usage{}, err
	}
	trackChild(cmd, true)
	err := cmd.Wait()
	wall := time.Since(start)
	trackChild(cmd, false)
	if err != nil {
		return nil, wall, usage{}, fmt.Errorf("msvdsm %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return stdout.Bytes(), wall, usageOf(cmd.ProcessState), nil
}

// daemon is a long-running msvdsm child (serve or worker).
type daemon struct {
	cmd  *exec.Cmd
	log  *os.File
	addr string // base URL, serve only
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// startServer launches `msvdsm <global> serve -addr 127.0.0.1:0 <serveArgs>`
// and waits for the address it announces on stdout.
func (e *env) startServer(name string, global, serveArgs []string) (*daemon, error) {
	args := append(append([]string{}, global...), "serve", "-addr", "127.0.0.1:0")
	args = append(args, serveArgs...)
	d, stdout, err := e.startDaemon(name, args, true)
	if err != nil {
		return nil, err
	}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			if first {
				line <- sc.Text()
				first = false
			}
		}
		if first {
			line <- ""
		}
	}()
	select {
	case l := <-line:
		m := listenRE.FindStringSubmatch(l)
		if m == nil {
			d.stop()
			return nil, fmt.Errorf("%s: no listen address on stdout (got %q); see %s", name, l, d.log.Name())
		}
		d.addr = m[1]
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s: server did not announce its address within 20s", name)
	}
	return d, nil
}

// startWorker launches `msvdsm worker -coordinator url`.
func (e *env) startWorker(name, coordinator string) (*daemon, error) {
	d, _, err := e.startDaemon(name, []string{"worker", "-coordinator", coordinator, "-name", name}, false)
	return d, err
}

func (e *env) startDaemon(name string, args []string, wantStdout bool) (*daemon, io.Reader, error) {
	logf, err := os.Create(filepath.Join(e.out, name+".log"))
	if err != nil {
		return nil, nil, err
	}
	cmd := e.childCmd(args...)
	cmd.Stderr = logf
	var stdout io.Reader
	if wantStdout {
		if stdout, err = cmd.StdoutPipe(); err != nil {
			logf.Close()
			return nil, nil, err
		}
	} else {
		cmd.Stdout = logf
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, nil, err
	}
	trackChild(cmd, true)
	return &daemon{cmd: cmd, log: logf}, stdout, nil
}

// stop asks the child to drain (SIGTERM), waits for it, and returns its
// rusage.  A child that ignores the signal for 20s is killed.
func (d *daemon) stop() (usage, error) {
	defer d.log.Close()
	defer trackChild(d.cmd, false)
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return usageOf(d.cmd.ProcessState), fmt.Errorf("%s: %v", filepath.Base(d.log.Name()), err)
		}
		return usageOf(d.cmd.ProcessState), nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return usage{}, fmt.Errorf("%s: did not exit within 20s of SIGTERM; killed", filepath.Base(d.log.Name()))
	}
}

// httpClient is shared by the load generators: keep-alive, and as many
// idle connections as there are clients.
var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute},
	Timeout:   2 * time.Minute,
}

// httpGet fetches url and returns the status and the whole body.
func httpGet(url string) (int, []byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// hostInfo is printed with every result so a reader can judge the run.
type hostInfo struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	Load1      float64
	Noisy      bool
}

func (e *env) hostInfo() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Load1:      loadAvg1(),
	}
	// Above half a busy core before the workload starts, timings are
	// suspect; the run is flagged, not refused.
	h.Noisy = h.Load1 > 0.5
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

func (h hostInfo) String() string {
	noisy := ""
	if h.Noisy {
		noisy = " NOISY"
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s commit=%s load1=%.2f%s",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Load1, noisy)
}
