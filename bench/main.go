// Command bench is the repository's benchmark: four workloads over a
// seeded synthetic corpus, run against sarserve and sarank as child
// processes, with a traced pass that times each layer's public
// functions from here. README.md in this directory says what each
// workload and metric is for; BENCHMARK.json at the repository root
// lists the gated metrics and their bounds.
//
//	bash bench/run.sh -workload read-mix -seed 7            # one workload
//	bash bench/run.sh -workload read-mix -seed 7 -trace 1   # its per-layer pass
//	bash bench/run.sh -all -seed 7                          # all four
//	bash bench/run.sh -aa 5                                 # A/A sets checked against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"scholarrank/internal/corpus"
	"scholarrank/internal/live"
)

// Names of the gated metrics. Every workload reports all four; what
// primary_ms and secondary_ms time in each workload is fixed by the
// table in README.md and printed beside them on every run.
const (
	mSetup     = "setup_s"
	mPrimary   = "primary_ms"
	mSecondary = "secondary_ms"
	mPeakRSS   = "peak_rss_mb"
)

// workload is one benchmark workload: its untraced pass produces the
// gated numbers, its traced pass the per-layer ones.
type workload struct {
	name   string
	run    func(*run) error
	traced func(*run) error
}

var workloads = []workload{
	{"rank-cold", rankCold, rankColdTraced},
	{"read-mix", readMix, readMixTraced},
	{"related-walk", relatedWalk, relatedWalkTraced},
	{"ingest-under-read", ingestUnderRead, ingestUnderReadTraced},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is what the command line fixes for one run.
type config struct {
	seed    int64
	seconds int
	trace   bool
	started time.Time // when the command began, before any build
}

// run is the state of one workload pass.
type run struct {
	cfg    config
	env    *env
	res    *result
	rec    *recorder // nil on an untraced pass
	store  *corpus.Store
	corpus string // path of the SCORP file
	print  uint64 // live.Fingerprint of store
	budget time.Duration

	calib      calibration
	timedStart time.Time // first timed operation; zero until setupDone
}

// setupDone marks the first timed operation and records setup_s:
// command start to now, less the host calibration, which is the
// harness's own cost and not the system's.
func (r *run) setupDone() {
	r.timedStart = time.Now()
	r.res.add(mSetup, "s", secs(r.timedStart.Sub(r.cfg.started)-r.calib.took), 1)
}

// metric is one reported number. n is the number of samples behind a
// statistic, 0 for a plain reading.
type metric struct {
	name    string
	unit    string
	value   float64
	n       int
	samples []float64 // the individual values, kept when there are few
}

// result collects what one pass measured and checked. op may be
// called from the reader goroutine beside the main one; everything
// else belongs to the goroutine running the pass.
type result struct {
	workload  string
	mu        sync.Mutex
	metrics   []metric
	notes     []string
	attempted int
	failed    int
	failures  []string
}

func (r *result) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

// addMedian reports the median of a handful of samples and keeps the
// samples for the printout: with n this small the reader should see
// every value, not only the summary.
func (r *result) addMedian(name, unit string, samples []float64) {
	r.metrics = append(r.metrics, metric{name, unit, median(samples), len(samples), samples})
}

// gate reports value under a gated name, noting which specific
// measurement it carries in this workload.
func (r *result) gate(gated, specific, unit string, value float64, n int) {
	r.add(gated, unit, value, n)
	r.notes = append(r.notes, fmt.Sprintf("%s = %s", gated, specific))
}

// op counts one operation or check; a non-nil err makes it a failed
// one. It returns whether the operation succeeded.
func (r *result) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

func (r *result) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// spec is BENCHMARK.json, the single list of gated and per-layer
// metric names.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resultLine is the machine-readable last line of a run.
func resultLine(res *result, want []specMetric) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]mv{}}
	for _, w := range want {
		// A layer this workload does not exercise reads 0.
		v, _ := res.value(w.Name)
		out.Metrics[w.Name] = mv{v, w.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

func printResult(res *result) {
	fmt.Printf("\n== %s ==\n", res.workload)
	for _, m := range res.metrics {
		n := ""
		if m.n > 0 {
			n = "n=" + strconv.Itoa(m.n)
		}
		fmt.Printf("%-34s %14.6g %-6s %s", m.name, m.value, m.unit, n)
		if len(m.samples) > 0 {
			fmt.Printf("  [%s]", formatValues(m.samples))
		}
		fmt.Println()
	}
	for _, note := range res.notes {
		fmt.Printf("  %s\n", note)
	}
	fmt.Printf("%-34s %14d\n%-34s %14d\n", "ops_attempted", res.attempted, "ops_failed", res.failed)
	for _, f := range res.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
}

// execute runs one pass of w and returns what it measured. The
// returned error is a harness or child failure; failed checks are in
// the result.
func execute(e *env, w workload, cfg config) (*result, error) {
	r := &run{cfg: cfg, env: e, res: &result{workload: w.name},
		corpus: filepath.Join(e.work, fmt.Sprintf("corpus-%d.scorp", cfg.seed)),
		budget: time.Duration(cfg.seconds) * time.Second}
	pass := w.run
	if cfg.trace {
		r.rec = newRecorder(fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, time.Now().UnixNano()))
		pass = w.traced
	}
	var err error
	if r.calib, err = e.probe.calibrate(); err != nil {
		return nil, err
	}
	if err := e.buildChildren(); err != nil {
		return nil, err
	}
	if r.store, err = generateCorpus(corpusArticles, cfg.seed, r.corpus); err != nil {
		return nil, err
	}
	r.print = live.Fingerprint(r.store)
	header := map[string]string{}
	fmt.Printf("# %s trace=%v", w.name, cfg.trace)
	for _, kv := range [][2]string{
		{"commit", commitID(e.root)},
		{"go", runtime.Version()},
		{"nproc", strconv.Itoa(runtime.NumCPU())},
		{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"solver_workers", strconv.Itoa(e.workers)},
		{"seed", strconv.FormatInt(cfg.seed, 10)},
		{"articles", strconv.Itoa(r.store.NumArticles())},
		{"citations", strconv.Itoa(r.store.NumCitations())},
		{"corpus", fmt.Sprintf("%016x", r.print)},
		{"seconds", strconv.Itoa(cfg.seconds)},
		{"load", fmt.Sprintf("closed loop, %d connection(s), bodies drained", e.workers)},
	} {
		header[kv[0]] = kv[1]
		fmt.Printf(" %s=%q", kv[0], kv[1])
	}
	fmt.Println()

	if err := pass(r); err != nil {
		return r.res, err
	}

	end, err := e.probe.calibrate()
	if err != nil {
		return r.res, err
	}
	drift := hostDrift(r.calib, end)
	fmt.Printf("# host.triad_gbps start=%.2f end=%.2f host.loopback_rtt_us start=%.1f end=%.1f host_drift=%v\n",
		r.calib.triadGBps, end.triadGBps, r.calib.rttUS, end.rttUS, drift)
	if cfg.trace {
		r.res.add("host.triad_gbps", "GB/s", (r.calib.triadGBps+end.triadGBps)/2, 2)
		r.res.add("host.loopback_rtt_us", "us", (r.calib.rttUS+end.rttUS)/2, 2)
		metrics := map[string]float64{}
		for _, m := range r.res.metrics {
			metrics[m.name] = m.value
		}
		header["host_drift"] = strconv.FormatBool(drift)
		path, err := r.rec.write(filepath.Join(e.root, "bench", "out"), w.name, header, metrics)
		if err != nil {
			return r.res, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", r.rec.count(), path)
	}
	return r.res, nil
}

// startedAt returns when the command began: run.sh passes the time it
// was invoked, before it built this binary, so that the build is part
// of setup_s; failing that, now.
func startedAt() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv("BENCH_STARTED_NS"), 10, 64); err == nil {
		return time.Unix(0, ns)
	}
	return time.Now()
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: rank-cold, read-mix, related-walk or ingest-under-read")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 0, "measurement budget of a run; the gate passes run_seconds of BENCHMARK.json, which is also the default")
		trace   = flag.Int("trace", 0, "1 runs the workload's per-layer pass and writes bench/out/trace-<workload>.json")
		all     = flag.Bool("all", false, "run every workload in turn")
		aa      = flag.Int("aa", 0, "run this many sets of every workload and check the A/A spread against the bounds")
	)
	flag.Parse()
	started := startedAt()

	workers := max(1, runtime.NumCPU()-1)
	e, err := newEnv(workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer e.close()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		e.close()
		os.Exit(130)
	}()

	sp, err := loadSpec(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// The gate passes -seconds run_seconds on every run, so the flag has
	// to exist; any other value measures another benchmark and says so.
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	if *seconds != sp.RunSeconds {
		fmt.Printf("# NOTE: -seconds %d is not run_seconds %d of BENCHMARK.json: these numbers do not compare with gated ones\n",
			*seconds, sp.RunSeconds)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, started: started}

	switch {
	case *aa > 0:
		return runAA(e, sp, cfg, *aa)
	case *all:
		code := 0
		for _, w := range workloads {
			cfg.started = time.Now()
			if c := runOne(e, sp, w, cfg); c != 0 {
				code = c
			}
		}
		return code
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		flag.Usage()
		return 2
	}
	return runOne(e, sp, w, cfg)
}

// runOne runs one pass, prints it, and ends with the result line.
func runOne(e *env, sp *spec, w workload, cfg config) int {
	res, err := execute(e, w, cfg)
	if res != nil {
		printResult(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	line, err := resultLine(res, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

var errNoSamples = errors.New("no samples")
