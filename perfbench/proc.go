package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 10 * time.Millisecond

// syncBuf collects a child's log output.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// child is a process this run started.
type child struct {
	cmd  *exec.Cmd
	log  *syncBuf
	done chan struct{}
}

// startChild starts bin with GOMAXPROCS=2. Its standard error goes to the
// child's log, and so does its standard output unless stdout is given.
func startChild(bin string, args []string, stdout io.Writer) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), log: &syncBuf{}, done: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	c.cmd.Stderr = c.log
	c.cmd.Stdout = c.log
	if stdout != nil {
		c.cmd.Stdout = stdout
	}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
	go func() {
		_ = c.cmd.Wait() // the exit status is judged from the log and by the caller
		childMu.Lock()
		delete(children, c)
		childMu.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// kill stops the child at once and waits until it has ended.
func (c *child) kill() {
	if !c.exited() {
		_ = c.cmd.Process.Kill()
	}
	<-c.done
}

// terminate sends SIGTERM and waits up to timeout for a clean exit; a child
// still running then is killed. It reports whether the exit was clean.
func (c *child) terminate(timeout time.Duration) bool {
	if c.exited() {
		return false
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
		return c.cmd.ProcessState.Success()
	case <-time.After(timeout):
		c.kill()
		return false
	}
}

// cpu returns the child's user+system CPU time so far.
func (c *child) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// hwmMiB returns the child's peak resident set size (VmHWM).
func (c *child) hwmMiB() (float64, error) {
	return statusMiB(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid), "VmHWM:")
}

func statusMiB(path, field string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %s: %w", path, field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no %s", path, field)
}

// hostSample is the machine's CPU time counters from /proc/stat, in clock
// ticks, summed over every CPU.
type hostSample struct{ steal, total int64 }

func readHost() (hostSample, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSample{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostSample{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostSample
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostSample{}, fmt.Errorf("bad /proc/stat line %q", line)
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealSince is the share of the CPU time since b that the hypervisor gave
// to other machines: time this VM's virtual CPUs were ready to run but did
// not.
func (h hostSample) stealSince(b hostSample) float64 {
	if h.total <= b.total {
		return 0
	}
	return float64(h.steal-b.steal) / float64(h.total-b.total)
}

// maxSteal is the most steal a window may see and still count as calm: a
// few per cent of stolen time already shows in the tail latencies. Bursts
// of steal last tens of seconds, so the warm-up goes on for up to
// maxCalmWait until it sees a calm window, and the timed phase more often
// starts after a burst than inside one.
const (
	maxSteal    = 0.01
	maxCalmWait = 5 * time.Second
)

// calm keeps the measurements during which the hypervisor stole at most
// maxSteal of the machine's CPU time, when they are at least a quarter of
// xs; otherwise it keeps the quarter of xs with the least steal. Steal
// comes from other machines on the same host, never from the program under
// test, and only ever slows it.
func calm[T any](xs []T, steal func(T) float64) []T {
	var out []T
	for _, x := range xs {
		if steal(x) <= maxSteal {
			out = append(out, x)
		}
	}
	keep := (len(xs) + 3) / 4
	if len(out) >= keep {
		return out
	}
	out = slices.Clone(xs)
	sort.SliceStable(out, func(i, j int) bool { return steal(out[i]) < steal(out[j]) })
	return out[:keep]
}

// server is a disthd-serve child listening on loopback.
type server struct {
	*child
	base   string
	client *http.Client
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startServer(bin string, args []string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c, err := startChild(bin, append(args, "-addr", addr), nil)
	if err != nil {
		return nil, err
	}
	return &server{child: c, base: "http://" + addr, client: &http.Client{Timeout: requestTimeout}}, nil
}

// launch starts the server and brings it to ready. The loopback port is
// picked before the server binds it, so a server that lost its port to
// another process in between is started again, up to three times.
func launch(bin string, args []string, ready func(*server) error) (*server, error) {
	for attempt := 1; ; attempt++ {
		srv, err := startServer(bin, args)
		if err != nil {
			return nil, err
		}
		if err = ready(srv); err == nil {
			return srv, nil
		}
		srv.kill()
		if attempt == 3 || !strings.Contains(srv.log.String(), "address already in use") {
			return nil, err
		}
	}
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if s.exited() {
			return fmt.Errorf("server exited before it was healthy:\n%s", s.log.String())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after %v:\n%s", timeout, s.log.String())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// call sends one administrative request and returns the body of a 2xx answer.
func (s *server) call(method, path, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// stop sends SIGTERM and reports whether the server drained cleanly: it
// exited 0 after logging "draining..." and its final "bye:" line.
func (s *server) stop() bool {
	s.client.CloseIdleConnections()
	clean := s.terminate(15 * time.Second)
	log := s.log.String()
	return clean && strings.Contains(log, "draining...") && strings.Contains(log, "bye: ")
}
