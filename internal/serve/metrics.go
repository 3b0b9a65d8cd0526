package serve

import (
	"scholarrank/internal/core"
	"scholarrank/internal/obs"
	"scholarrank/internal/sparse"
)

// Serving metric names, exposed at GET /metrics. The request-level
// families (http_request_duration_seconds, http_requests_total,
// http_in_flight_requests) come from obs.HTTPMetrics.
const (
	metricSwaps               = "sarserve_generation_swaps_total"
	metricWarmSaved           = "sarserve_warmstart_iterations_saved_total"
	metricIngestApplied       = "sarserve_ingest_batches_applied_total"
	metricIngestQuarantined   = "sarserve_ingest_batches_quarantined_total"
	metricStaleness           = "sarserve_ranking_staleness_seconds"
	metricVersion             = "sarserve_ranking_version"
	metricRankingScorer       = "sarserve_ranking_scorer"
	metricSolverIters         = "sarserve_solver_iterations"
	metricSolverResidual      = "sarserve_solver_residual"
	metricSolverSeconds       = "sarserve_solver_phase_seconds"
	metricReorderSecs         = "sarserve_solver_reorder_seconds"
	metricBackEdgeFraction    = "sarserve_solver_back_edge_fraction"
	metricExtrapolations      = "sarserve_solver_extrapolations_total"
	metricItersSaved          = "sarserve_solver_iterations_saved"
	metricPoolWorkers         = "sarserve_solver_pool_workers"
	metricPoolSweeps          = "sarserve_solver_pool_sweeps"
	metricCorpusBytes         = "sarserve_corpus_bytes"
	metricCorpusLoadSecs      = "sarserve_corpus_load_seconds"
	metricCorpusArticles      = "sarserve_corpus_articles"
	metricCorpusMmapBytes     = "sarserve_corpus_mmap_bytes"
	metricCorpusBootSecs      = "sarserve_corpus_boot_seconds"
	metricCorpusLoadMode      = "sarserve_corpus_load_mode"
	metricQueryShed           = "sarserve_query_shed_total"
	metricQueryQueueDepth     = "sarserve_query_queue_depth"
	metricQueryCacheHits      = "sarserve_query_cache_hits_total"
	metricQueryCacheMisses    = "sarserve_query_cache_misses_total"
	metricQueryCacheEntries   = "sarserve_query_cache_entries"
	metricQueryCacheCoalesced = "sarserve_query_cache_coalesced_total"
	metricWalkUnconverged     = "sarserve_related_unconverged_total"
	metricWalksCancelled      = "sarserve_related_walks_cancelled_total"
)

// serveMetrics bundles every instrument the serving layer records
// into. The solver and freshness metrics are callback gauges reading
// the current generation at scrape time, so they follow hot swaps
// with no bookkeeping on the swap path.
type serveMetrics struct {
	reg  *obs.Registry
	http *obs.HTTPMetrics

	// runtime backs the go_* families on /metrics and the runtime keys
	// on /stats; build is the binary identity behind build_info.
	runtime *obs.RuntimeCollector
	build   obs.Build

	warmSaved         *obs.Counter
	extrapolations    *obs.Counter
	ingestApplied     *obs.Counter
	ingestQuarantined *obs.Counter

	// Query-subsystem instruments: load shedding on the read path and
	// the response cache (every read is one of hit, miss or coalesced).
	shed           *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheCoalesced *obs.Counter
	// walkUnconverged counts /related walks that stopped at the
	// iteration cap instead of the tolerance; walksCancelled those
	// stopped because every request waiting on them had hung up.
	walkUnconverged *obs.Counter
	walksCancelled  *obs.Counter

	// bootSeconds is set once by the booting command (see
	// Server.RecordBootSeconds) — wall time from opening the corpus
	// file to a usable Store, the number the mmap path collapses.
	bootSeconds *obs.Gauge
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	// Pre-create the per-source swap counters so the family shows up
	// in /metrics (at zero) before the first hot swap.
	for _, source := range []string{"ingest", "reload"} {
		reg.Counter(metricSwaps, "Generation hot-swaps by source.", obs.Labels{"source": source})
	}
	obs.RegisterBuildInfo(reg)
	return &serveMetrics{
		reg:     reg,
		http:    obs.NewHTTPMetrics(reg),
		runtime: obs.RegisterRuntime(reg),
		build:   obs.ReadBuild(),
		warmSaved: reg.Counter(metricWarmSaved,
			"Solver iterations avoided by warm-starting re-solves, versus the previous generation's solve.", nil),
		extrapolations: reg.Counter(metricExtrapolations,
			"Accepted Aitken extrapolation steps across every solve this process has run.", nil),
		ingestApplied: reg.Counter(metricIngestApplied,
			"Delta batches folded into the corpus (HTTP bodies and spool files).", nil),
		ingestQuarantined: reg.Counter(metricIngestQuarantined,
			"Malformed spool delta files renamed aside as *.err.", nil),
		bootSeconds: reg.Gauge(metricCorpusBootSecs,
			"Wall time from opening the boot corpus file to a usable Store, in seconds.", nil),
		shed: reg.Counter(metricQueryShed,
			"Read requests shed by admission control (503 + Retry-After).", nil),
		cacheHits: reg.Counter(metricQueryCacheHits,
			"Read responses (/query, /related) served from the generation-keyed cache.", nil),
		cacheMisses: reg.Counter(metricQueryCacheMisses,
			"Read responses (/query, /related) computed rather than served from cache.", nil),
		cacheCoalesced: reg.Counter(metricQueryCacheCoalesced,
			"Read responses (/query, /related) that waited on another request's computation of the same cold key instead of computing it.", nil),
		walkUnconverged: reg.Counter(metricWalkUnconverged,
			"/related walks served after stopping at the iteration cap, short of the convergence tolerance.", nil),
		walksCancelled: reg.Counter(metricWalksCancelled,
			"/related walks stopped early because every request waiting on them had hung up.", nil),
	}
}

// solve accrues the per-solve acceleration counters after a ranking
// completes (the boot solve and every rebuild).
func (m *serveMetrics) solve(sc *core.Scores) {
	m.extrapolations.Add(uint64(sc.PrestigeStats.Extrapolations + sc.HeteroStats.Extrapolations))
}

// swap counts one generation swap by source ("ingest" or "reload").
func (m *serveMetrics) swap(source string) {
	m.reg.Counter(metricSwaps,
		"Generation hot-swaps by source.", obs.Labels{"source": source}).Inc()
}

// observeServer registers the scrape-time gauges over the server's
// live generation: ranking version and staleness, per-phase solver
// convergence and wall time from the last solve, and worker-pool
// occupancy.
func (m *serveMetrics) observeServer(s *Server) {
	// The gauges are registered before the first generation is stored;
	// a scrape in that window reads zeros rather than panicking.
	scores := func() *core.Scores {
		if g := s.gen.Load(); g != nil {
			return g.scores
		}
		return &core.Scores{}
	}
	m.reg.GaugeFunc(metricVersion,
		"Current ranking generation number.", nil,
		func() float64 {
			if g := s.gen.Load(); g != nil {
				return float64(g.version)
			}
			return 0
		})
	m.reg.GaugeFunc(metricStaleness,
		"Age of the serving ranking in seconds.", nil,
		func() float64 {
			if g := s.gen.Load(); g != nil {
				return s.clock().Sub(g.rankedAt).Seconds()
			}
			return 0
		})
	// One series per registered scorer, 1 on the one that produced the
	// serving ranking — the corpus_load_mode idiom, so dashboards can
	// group fleets by active scorer without parsing label values.
	for _, name := range core.ScorerNames() {
		name := name
		m.reg.GaugeFunc(metricRankingScorer,
			"Registered scorer behind the serving ranking: 1 on the active scorer's series.",
			obs.Labels{"scorer": name},
			func() float64 {
				if g := s.gen.Load(); g != nil && g.scorer == name {
					return 1
				}
				return 0
			})
	}

	stats := map[string]func() sparse.IterStats{
		core.PhasePrestige: func() sparse.IterStats { return scores().PrestigeStats },
		core.PhaseHetero:   func() sparse.IterStats { return scores().HeteroStats },
	}
	for phase, get := range stats {
		get := get
		m.reg.GaugeFunc(metricSolverIters,
			"Iterations of the last solve by phase.", obs.Labels{"phase": phase},
			func() float64 { return float64(get().Iterations) })
		m.reg.GaugeFunc(metricSolverResidual,
			"Final L1 residual of the last solve by phase.", obs.Labels{"phase": phase},
			func() float64 { return get().Residual })
		m.reg.GaugeFunc(metricSolverSeconds,
			"Wall time of the last solve by phase, in seconds.", obs.Labels{"phase": phase},
			func() float64 { return get().Elapsed.Seconds() })
	}

	m.reg.GaugeFunc(metricItersSaved,
		"Estimated plain power-iteration sweeps the last solve's extrapolations avoided.", nil,
		func() float64 {
			sc := scores()
			return float64(sc.PrestigeStats.IterationsSaved + sc.HeteroStats.IterationsSaved)
		})
	m.reg.GaugeFunc(metricReorderSecs,
		"Wall time the serving corpus's freeze-time chronological ordering took.", nil,
		func() float64 {
			if g := s.gen.Load(); g != nil {
				return g.store.ReorderSeconds()
			}
			return 0
		})

	m.reg.GaugeFunc(metricBackEdgeFraction,
		"Share of citation edges the last solve's Gauss-Seidel sweeps read stale: the citing row is not above the cited row in solver order.", nil,
		func() float64 { return scores().BackEdgeFraction })

	m.reg.GaugeFunc(metricPoolWorkers,
		"Worker-pool parallelism of the last solve.", nil,
		func() float64 { return float64(scores().Pool.Workers) })
	m.reg.GaugeFunc(metricPoolSweeps,
		"Cumulative kernel sweeps the solver pool has executed.", nil,
		func() float64 { return float64(scores().Pool.Runs) })

	m.reg.GaugeFunc(metricCorpusBytes,
		"Resident bytes of the serving corpus's frozen columns.", nil,
		func() float64 {
			if g := s.gen.Load(); g != nil {
				return float64(g.store.Bytes())
			}
			return 0
		})
	m.reg.GaugeFunc(metricCorpusArticles,
		"Articles in the serving corpus generation.", nil,
		func() float64 {
			if g := s.gen.Load(); g != nil {
				return float64(g.store.NumArticles())
			}
			return 0
		})
	m.reg.GaugeFunc(metricCorpusLoadSecs,
		"Wall time the boot corpus took to load from disk.", nil,
		func() float64 { return s.cfg.CorpusLoadSeconds })

	// Query-subsystem occupancy gauges. Cache and limiter methods are
	// nil-safe, so these read zero on unconfigured servers.
	m.reg.GaugeFunc(metricQueryQueueDepth,
		"Read requests waiting for an admission slot.", nil,
		func() float64 { return float64(s.limiter.QueueDepth()) })
	m.reg.GaugeFunc(metricQueryCacheEntries,
		"Entries resident in the read-path response cache.", nil,
		func() float64 { return float64(s.cache.Len()) })

	// Mapped-corpus gauges. These read slice headers and atomic
	// counters only, so a scrape racing a generation swap never
	// touches (possibly unmapped) column memory.
	m.reg.GaugeFunc(metricCorpusMmapBytes,
		"Bytes of the serving corpus's memory-mapped SCORP file (0 when heap-loaded).", nil,
		func() float64 {
			if g := s.gen.Load(); g != nil {
				return float64(g.store.MappedBytes())
			}
			return 0
		})
	for _, mode := range []string{"mmap", "heap"} {
		mode := mode
		m.reg.GaugeFunc(metricCorpusLoadMode,
			"How the serving corpus is backed: 1 on the active mode's series.", obs.Labels{"mode": mode},
			func() float64 {
				if g := s.gen.Load(); g != nil && g.store.LoadMode() == mode {
					return 1
				}
				return 0
			})
	}
}
