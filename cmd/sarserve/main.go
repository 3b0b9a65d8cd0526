// Command sarserve exposes a ranked corpus over HTTP: the production
// shape of query-independent ranking, where scores are computed
// offline and served as a static signal to a search stack. The
// ranking can be updated while serving: deltas arrive over
// /admin/ingest or through a watched spool directory, are re-solved
// warm-started from the live scores, and swap in atomically.
//
// Endpoints:
//
//	GET  /healthz                 liveness + ranking version/staleness
//	GET  /stats                   corpus + ranking metadata, solver timings
//	GET  /metrics                 Prometheus text exposition (latency
//	                              histograms, swap/ingest counters,
//	                              solver convergence gauges)
//	GET  /top?k=20                top-k articles by importance
//	GET  /query?author=A&venue=V&from=2000&to=2010&k=20&cursor=...
//	                              filtered top-k retrieval (author, venue,
//	                              year window) with cursor pagination and a
//	                              generation-keyed response cache
//	GET  /article?key=p00000001   one article with its score components
//	GET  /compare?a=KEY&b=KEY     relative order of two articles, with
//	                              the signal breakdown explaining it
//	GET  /authors?k=20            top authors (shrunk-mean aggregation)
//	GET  /venues?k=20             top venues likewise
//	GET  /related?key=KEY&k=10    articles related to KEY (personalised walk)
//	POST /admin/ingest            apply a JSONL delta and re-rank
//	POST /admin/reload            drain the spool and force a re-solve
//	GET  /admin/snapshot          download the current ranking snapshot
//	GET  /debug/traces            recent + slowest request traces (JSON)
//	GET  /debug/pprof/            profiling (only with -pprof)
//
// Every response carries an X-Request-ID header (generated when the
// client sends a well-formed one it is echoed; malformed or oversize
// ids are replaced) that also appears in the per-request log lines.
// Requests are traced end to end: an inbound W3C traceparent header
// is adopted and the server's own span is echoed back, responses
// carry a Server-Timing breakdown (queue wait, cache lookup, index
// execution, ...), and with -request-log each request emits one
// canonical wide-event line carrying the same span durations.
// Traces whose root span meets -trace-threshold are retained in the
// slowest-N set at /debug/traces past ring churn.
//
// Usage:
//
//	sarserve -in corpus.jsonl -addr :8080
//	sarserve -in corpus.jsonl -scores ranking.snap        # boot without solving
//	sarserve -corpus corpus.scorp -scores ranking.snap    # zero-copy mmap boot
//	sarserve -corpus corpus.scorp -mmap=false             # force the heap loader
//	sarserve -in corpus.jsonl -spool deltas/ -refresh 30s # live updates
//	sarserve -in corpus.jsonl -scorer ewpr                # non-default scorer
//	sarserve -in corpus.jsonl -pprof -log-format json
//
// The -corpus form serves a columnar SCORP corpus (written by
// sarank -save-corpus or sargen -emit-corpus). By default the file is
// memory-mapped (corpus.OpenMapped): the store's columns alias the
// mapped pages directly, boot costs O(section table) regardless of
// corpus size, and the OS page cache — shared across processes —
// backs corpora larger than RAM. Unaligned files fall back
// to the section-by-section heap loader automatically; -mmap=false
// forces that path. Combined with -scores the process serves without
// solving either; /stats reports corpus_load_mode, corpus_mmap_bytes
// and corpus_load_seconds for the boot that did happen. A -scores
// snapshot must carry the loaded corpus's fingerprint and the current
// snapshot version; regenerate a refused one with sarank -save-scores.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scholarrank/internal/cliutil"
	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/live"
	"scholarrank/internal/obs"
	"scholarrank/internal/serve"
)

// shutdownGrace bounds how long in-flight requests may run after a
// termination signal before the listener is torn down.
const shutdownGrace = 10 * time.Second

func main() {
	var (
		in          = flag.String("in", "", "corpus file ("+cliutil.FormatList()+"; .gz ok); required unless -corpus is set")
		scorpPath   = flag.String("corpus", "", "columnar SCORP corpus for zero-parse boot (overrides -in)")
		mmapFlag    = flag.Bool("mmap", true, "serve -corpus via mmap: O(1) boot, page-cache backed (falls back to the heap loader on unaligned files)")
		format      = flag.String("format", "", "corpus format override (with -in)")
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "solver worker threads (0 = all CPUs)")
		scorerName  = flag.String("scorer", "", "registered ranking scorer for every (re-)solve (empty = default pipeline)")
		scores      = flag.String("scores", "", "ranking snapshot to boot from (skips the initial solve)")
		spool       = flag.String("spool", "", "directory watched for JSONL delta files")
		refresh     = flag.Duration("refresh", 30*time.Second, "spool poll interval (needs -spool)")
		debounce    = flag.Duration("debounce", 2*time.Second, "quiet period before a spool batch is ingested")
		maxK        = flag.Int("max-k", 0, "upper bound of the k parameter on top-K endpoints (0 = default 1000)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently served read requests; excess queues then sheds with 503 (0 = unlimited)")
		queueWait   = flag.Duration("queue-timeout", 0, "how long an over-limit read request may queue before shedding (0 = default 100ms)")
		cacheSize   = flag.Int("cache-entries", 0, "query response cache size in entries (0 = default 4096, negative disables)")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		reqLog      = flag.Bool("request-log", true, "log one canonical wide-event line per request")
		traceThresh = flag.Duration("trace-threshold", 100*time.Millisecond, "root-span duration at which a request trace joins the slowest-N set on /debug/traces (negative retains every trace)")
		version     = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("sarserve"))
		return
	}

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	obs.InitLogging(os.Stderr, level, *logFormat)
	logger := obs.Logger("sarserve")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *in == "" && *scorpPath == "" {
		flag.Usage()
		fatal("missing -in or -corpus")
	}

	loadStart := time.Now()
	var store *corpus.Store
	if *scorpPath != "" {
		open := corpus.ReadSCORPFile
		if *mmapFlag {
			open = corpus.OpenMapped
		}
		if store, err = open(*scorpPath); err != nil {
			fatal("load corpus", "file", *scorpPath, "error", err)
		}
		// The boot handle owns one reference to the mapping; serving
		// generations retain their own, so this release at exit never
		// strands a live request.
		defer store.Close()
	} else if store, err = cliutil.LoadCorpus(*in, *format); err != nil {
		fatal("load corpus", "file", *in, "error", err)
	}
	loadElapsed := time.Since(loadStart)
	logger.Info("corpus loaded",
		"articles", store.NumArticles(), "citations", store.NumCitations(),
		"bytes", store.Bytes(), "zero_parse", *scorpPath != "",
		"load_mode", store.LoadMode(), "mapped_bytes", store.MappedBytes(),
		"elapsed", loadElapsed.Round(time.Microsecond).String())

	opts := core.DefaultOptions()
	opts.Workers = *workers
	if *scorerName != "" {
		if _, ok := core.ScorerDoc(*scorerName); !ok {
			fatal("unknown -scorer", "scorer", *scorerName, "registered", core.ScorerNames())
		}
	}
	cfg := serve.Config{
		Options:           opts,
		Scorer:            *scorerName,
		SpoolDir:          *spool,
		RefreshInterval:   *refresh,
		Debounce:          *debounce,
		MaxTopK:           *maxK,
		MaxInflight:       *maxInflight,
		QueueTimeout:      *queueWait,
		CacheEntries:      *cacheSize,
		RequestLog:        *reqLog,
		EnablePprof:       *pprofFlag,
		TraceThreshold:    *traceThresh,
		CorpusLoadSeconds: loadElapsed.Seconds(),
	}

	start := time.Now()
	var srv *serve.Server
	if *scores != "" {
		snap, err := live.ReadSnapshotFile(*scores)
		if err != nil {
			fatal("read snapshot", "file", *scores, "error", err)
		}
		if srv, err = serve.NewFromSnapshot(store, snap, cfg); err != nil {
			fatal("boot from snapshot", "file", *scores, "error", err)
		}
		logger.Info("booted from snapshot",
			"file", *scores, "version", srv.Version(),
			"articles", store.NumArticles(),
			"elapsed", time.Since(start).Round(time.Millisecond).String())
	} else {
		logger.Info("ranking corpus", "articles", store.NumArticles(), "scorer", cfg.Scorer)
		if srv, err = serve.NewWithConfig(store, cfg); err != nil {
			fatal("rank corpus", "error", err)
		}
		logger.Info("ranked", "elapsed", time.Since(start).Round(time.Millisecond).String())
	}
	if *spool != "" {
		logger.Info("watching spool", "spool", *spool, "interval", refresh.String())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "metrics", "/metrics", "pprof", *pprofFlag)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("listen", "addr", *addr, "error", err)
	case <-ctx.Done():
		stop()
		logger.Info("signal received, draining")
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err)
	}
	srv.Close()
	logger.Info("stopped")
}

// parseLevel maps a -log-level value to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("sarserve: unknown -log-level %q (want debug, info, warn or error)", s)
}
