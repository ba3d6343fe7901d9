package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run starts: the temporary directory under
// the checkout's .bench_build (binary, inputs, WAL directories, daemon
// logs) and every daemon process. cleanup kills the daemons, waits for
// each to end and removes the directory; it runs on success, on failure
// and on SIGINT, and is safe to call more than once.
type harness struct {
	root string // repository checkout
	tmp  string // this run's temporary directory
	bin  string // certainfixd built from root
	// ctx is canceled by cleanup, killing a build still running; builds
	// lets cleanup wait until it has ended.
	ctx    context.Context
	cancel context.CancelFunc
	builds sync.WaitGroup

	mu      sync.Mutex
	daemons []*daemon
	closed  bool
	once    sync.Once
}

func newHarness(root string) (*harness, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "certainfixd")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &harness{root: root, tmp: tmp, ctx: ctx, cancel: cancel}, nil
}

// build compiles certainfixd from the checkout into the run's directory.
func (h *harness) build() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("harness closed")
	}
	h.builds.Add(1)
	h.mu.Unlock()
	defer h.builds.Done()
	h.bin = filepath.Join(h.tmp, "certainfixd")
	cmd := exec.CommandContext(h.ctx, "go", "build", "-o", h.bin, "./cmd/certainfixd")
	cmd.Dir = h.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("build certainfixd: %v\n%s", err, out)
	}
	return nil
}

// daemon is one running certainfixd.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches certainfixd with args on a free loopback port. It does
// not wait for the daemon to serve; see waitHealthy.
func (h *harness) start(name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(h.tmp, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(h.bin, append(args, "-addr", addr)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Dir = h.tmp
	// Should this process die without running cleanup (SIGKILL), the
	// kernel kills the daemon too, so none outlives the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, log: logPath, done: make(chan struct{})}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("harness closed")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: every exit is ours or a failure waitHealthy reports
		close(d.done)
	}()
	h.daemons = append(h.daemons, d)
	return d, nil
}

// waitHealthy polls GET /healthz until it answers 200, the process exits
// or the timeout passes.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before serving:\n%s", d.name, tailFile(d.log))
		default:
		}
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v:\n%s", d.name, timeout, tailFile(d.log))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the daemon and waits until it has ended.
func (h *harness) stop(d *daemon) {
	_ = d.cmd.Process.Kill() // fails only if it already exited; done is closed either way
	<-d.done
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, x := range h.daemons {
		if x == d {
			h.daemons = append(h.daemons[:i], h.daemons[i+1:]...)
			break
		}
	}
}

// cleanup stops every daemon still running and removes the run's
// temporary directory.
func (h *harness) cleanup() {
	h.once.Do(func() {
		h.mu.Lock()
		h.closed = true
		ds := append([]*daemon(nil), h.daemons...)
		h.daemons = nil
		h.mu.Unlock()
		h.cancel()
		h.builds.Wait()
		for _, d := range ds {
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		if err := os.RemoveAll(h.tmp); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: remove %s: %v\n", h.tmp, err)
		}
	})
}

// tempDir makes a fresh directory inside the run's temporary tree.
func (h *harness) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(h.tmp, prefix)
}

func tailFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// procCPU returns user+system CPU seconds of a process, from
// /proc/<pid>/stat (clock ticks of 1/100 s, the Linux USER_HZ).
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields start after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuOf sums procCPU over daemons.
func cpuOf(ds ...*daemon) (float64, error) {
	var sum float64
	for _, d := range ds {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// rssOf sums procPeakRSSMB over daemons.
func rssOf(ds ...*daemon) (float64, error) {
	var sum float64
	for _, d := range ds {
		m, err := procPeakRSSMB(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum, nil
}
