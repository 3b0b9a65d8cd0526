package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDir is where binaries and per-run scratch live, relative to
// the repository root. The root .gitignore names it.
const buildDir = ".bench_build"

// env owns everything a run leaves outside its own memory: the
// scratch directory and the child processes. close undoes all of it
// and is safe to call from the signal handler while a workload runs.
type env struct {
	root    string // repository root
	work    string // scratch directory of this run
	bin     string // directory holding sarserve and sarank
	workers int    // -workers passed to every child
	probe   hostProbe

	mu       sync.Mutex
	children []*child
	closed   bool
}

// findRoot walks up from the working directory to the directory
// holding the scholarrank module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module scholarrank\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no scholarrank module above the working directory: run from the repository")
		}
		dir = parent
	}
}

func newEnv(workers int) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, work: work, bin: filepath.Join(base, "bin"), workers: workers}, nil
}

// buildChildren compiles the programs under test. The output
// directory persists across runs, so after the first run this is the
// go tool confirming the binaries are current.
func (e *env) buildChildren() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/sarserve", "./cmd/sarank")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build sarserve and sarank: %w\n%s", err, out)
	}
	return nil
}

// close kills every child still running and removes the scratch
// directory.
func (e *env) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	children := e.children
	e.mu.Unlock()
	for _, c := range children {
		c.stop()
	}
	_ = os.RemoveAll(e.work) // nothing to do about a failure while exiting
}

// child is one process under test with its stderr captured to a file.
type child struct {
	cmd     *exec.Cmd
	stderr  string
	started time.Time
	exited  chan struct{} // closed once Wait returned
	waitErr error

	stopOnce sync.Once
}

// spawn starts name (a binary in e.bin) with args, stderr to a file
// in the scratch directory and stdout discarded.
func (e *env) spawn(name string, args ...string) (*child, error) {
	errFile, err := os.CreateTemp(e.work, name+"-*.stderr")
	if err != nil {
		return nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Stderr = errFile
	c := &child{cmd: cmd, stderr: errFile.Name(), exited: make(chan struct{})}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errors.New("run is shutting down")
	}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	e.children = append(e.children, c)
	return c, nil
}

// stop kills the process if it still runs and waits until it ended.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		_ = c.cmd.Process.Kill() // already exited is fine
		<-c.exited
	})
}

// stderrTail returns the last lines the child wrote to stderr, for a
// failure report.
func (c *child) stderrTail() string {
	data, err := os.ReadFile(c.stderr)
	if err != nil {
		return "(stderr unreadable: " + err.Error() + ")"
	}
	const keep = 2000
	if len(data) > keep {
		data = data[len(data)-keep:]
	}
	return string(bytes.TrimSpace(data))
}

// runToExit waits for a batch child and returns its wall time from
// exec to exit.
func (c *child) runToExit() (time.Duration, error) {
	<-c.exited
	took := time.Since(c.started)
	if c.waitErr != nil {
		return took, fmt.Errorf("%s: %w\n%s", filepath.Base(c.cmd.Path), c.waitErr, c.stderrTail())
	}
	return took, nil
}

// freeAddr picks a loopback address no one listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// server is a sarserve child and the client talking to it.
type server struct {
	*child
	base string
	c    *client
}

// startServer launches sarserve on corpusPath with default flags
// except -workers (and whatever extra names), on a free port.
func (e *env) startServer(corpusPath string, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-corpus", corpusPath, "-addr", addr, "-workers", strconv.Itoa(e.workers)}, extra...)
	c, err := e.spawn("sarserve", args...)
	if err != nil {
		return nil, err
	}
	return &server{child: c, base: "http://" + addr, c: newClient()}, nil
}

// awaitFirstRanked polls /top?k=10 until it answers 200 with a body
// verify accepts, and returns the time since exec.
func (s *server) awaitFirstRanked(verify func(body []byte) error) (time.Duration, error) {
	const (
		pollEvery = 2 * time.Millisecond
		giveUp    = 120 * time.Second
	)
	for {
		r, err := s.c.get(s.base + "/top?k=10")
		took := time.Since(s.started)
		if err == nil && r.status == 200 {
			if err := verify(r.body); err != nil {
				return took, fmt.Errorf("first /top body: %w", err)
			}
			return took, nil
		}
		select {
		case <-s.exited:
			return took, fmt.Errorf("sarserve exited before serving: %v\n%s", s.waitErr, s.stderrTail())
		case <-time.After(pollEvery):
		}
		if took > giveUp {
			return took, fmt.Errorf("sarserve not serving after %s\n%s", giveUp, s.stderrTail())
		}
	}
}

func (s *server) peakRSSMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }
