package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// triadWords is the length of each of the three triad arrays: 16 Mi
// float64 = 128 MiB each, 384 MiB in all. This host has 4 MiB of L2
// per core and 260 MiB of shared L3, so the arrays together exceed the
// last-level cache but the usual four-times-LLC rule is out of reach
// without a gigabyte of scratch memory per run.
const triadWords = 16 << 20

// hostProbe holds the triad arrays from one calibration to the next,
// so that only the first pays for faulting 384 MiB in.
type hostProbe struct {
	a, b, c []float64
}

// triadGBps measures a STREAM-style triad (a[i] = b[i] + s*c[i]) over
// all CPUs and returns the best of five passes in GB/s, counting 24
// bytes moved per element. Best-of, because every disturbance makes a
// pass slower and none makes it faster.
func (h *hostProbe) triadGBps() float64 {
	if h.a == nil {
		h.a = make([]float64, triadWords)
		h.b = make([]float64, triadWords)
		h.c = make([]float64, triadWords)
		for i := range h.b {
			h.b[i], h.c[i] = 1, 2
		}
	}
	a, b, c := h.a, h.b, h.c
	workers := runtime.NumCPU()
	best := 0.0
	for pass := 0; pass < 6; pass++ {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*triadWords/workers, (w+1)*triadWords/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range x {
					x[i] = y[i] + 3*z[i]
				}
			}()
		}
		wg.Wait()
		// The first pass faults the destination pages in or pulls them
		// back into cache; skip it.
		if gbps := 24 * float64(triadWords) / time.Since(start).Seconds() / 1e9; pass > 0 && gbps > best {
			best = gbps
		}
	}
	return best
}

// loopbackRTTus returns the tenth-percentile round trip, in
// microseconds, of a one-byte echo over a loopback TCP connection: the
// floor under every client-side latency this harness reports. A low
// percentile, because the floor is what an undisturbed round trip
// costs; the median moves with whatever else the host is doing.
func loopbackRTTus() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(conn, conn) // ends when the client closes
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	buf := []byte{0}
	const rounds = 5000
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := conn.Write(buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
	}
	sort.Float64s(rtts)
	return percentile(rtts, 10), nil
}

// calibration is one reading of the host's memory bandwidth and
// loopback latency.
type calibration struct {
	triadGBps float64
	rttUS     float64
	took      time.Duration
}

func (h *hostProbe) calibrate() (calibration, error) {
	start := time.Now()
	rtt, err := loopbackRTTus()
	if err != nil {
		return calibration{}, fmt.Errorf("loopback calibration: %w", err)
	}
	c := calibration{triadGBps: h.triadGBps(), rttUS: rtt}
	c.took = time.Since(start)
	return c, nil
}

// hostDrift reports whether two calibrations of one run differ by
// more than 10 % on either reading, in which case a disagreement
// between runs is the machine's and not the code's.
func hostDrift(a, b calibration) bool {
	rel := func(x, y float64) float64 { return math.Abs(x-y) / math.Min(x, y) }
	return rel(a.triadGBps, b.triadGBps) > 0.10 || rel(a.rttUS, b.rttUS) > 0.10
}

// parseVmHWM extracts the peak resident set size from the text of
// /proc/<pid>/status, in MB of 1024 kB as the kernel counts them.
func parseVmHWM(status io.Reader) (float64, error) {
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMB reads a live process's peak resident set size.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// commitID names the code under test: the git revision when the
// harness runs inside a work tree, "unknown" in an exported checkout.
func commitID(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
