package serve

import (
	"fmt"
	"reflect"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/obs"
	"scholarrank/internal/sparse"
)

// quantity is one telemetry declaration: a sarserve_* family on
// GET /metrics, a key on GET /stats, or both when they are one
// reading. The declaration list (serveMetrics.declare) is the only
// place the serving layer registers metrics, and README's telemetry
// table is checked against it. The request-level http_*, go_*,
// build_info and process_* families come from obs.
type quantity struct {
	metric string // family name; "" for a /stats-only key
	key    string // /stats key; "" for a /metrics-only family
	help   string
	// label names the series dimension and values lists its series.
	// A one-hot quantity reads one label value: /stats shows it, and
	// each series is 1 on it and 0 elsewhere. Otherwise each series
	// reads its own value, and key holds a %s for the label value.
	label  string
	values []string
	oneHot bool
	// counters, on a counter family, are the handles the handlers
	// increment, one per series; read is unused.
	counters []**obs.Counter
	// read returns the value of one series ("" without a label) in the
	// JSON type /stats renders.
	read func(g *generation, value string) any
}

// wholeSeconds is a duration in seconds that /stats renders truncated
// to an integer and /metrics in full.
type wholeSeconds float64

// serveMetrics is the serving layer's telemetry: the registry behind
// GET /metrics, the declaration list behind both endpoints, and the
// counter handles the handlers increment.
type serveMetrics struct {
	reg     *obs.Registry
	http    *obs.HTTPMetrics
	runtime *obs.RuntimeCollector
	build   obs.Build
	list    []quantity

	swapsIngest, swapsReload, warmSaved, extrapolations *obs.Counter
	ingestApplied, ingestQuarantined                    *obs.Counter
	shed, cacheHits, cacheMisses, cacheCoalesced        *obs.Counter
	walkUnconverged, walksCancelled                     *obs.Counter
}

// newServeMetrics registers the declaration list over s in reg. The
// gauges read the current generation at scrape time, so they follow
// hot swaps with no bookkeeping on the swap path.
func newServeMetrics(s *Server, reg *obs.Registry) *serveMetrics {
	obs.RegisterBuildInfo(reg)
	m := &serveMetrics{reg: reg, http: obs.NewHTTPMetrics(reg), runtime: obs.RegisterRuntime(reg), build: obs.ReadBuild()}
	m.list = m.declare(s)
	for _, q := range m.list {
		if q.metric == "" {
			continue
		}
		values := q.values
		if q.label == "" {
			values = []string{""}
		}
		for i, v := range values {
			var labels obs.Labels
			if q.label != "" {
				labels = obs.Labels{q.label: v}
			}
			if q.counters != nil {
				*q.counters[i] = reg.Counter(q.metric, q.help, labels)
				continue
			}
			reg.GaugeFunc(q.metric, q.help, labels, func() float64 {
				// A scrape before the first generation is stored reads 0.
				if g := s.gen.Load(); g != nil {
					return q.gauge(g, v)
				}
				return 0
			})
		}
	}
	return m
}

// declare returns the declaration list over s: one entry per
// sarserve_* family or /stats key, grouped corpus, ranking and swaps,
// solver, read path, process.
func (m *serveMetrics) declare(s *Server) []quantity {
	phases := []string{core.PhasePrestige, core.PhaseHetero}
	phase := func(g *generation, p string) sparse.IterStats {
		if p == core.PhaseHetero {
			return g.scores.HeteroStats
		}
		return g.scores.PrestigeStats
	}
	return []quantity{
		{metric: "sarserve_corpus_articles", key: "articles", help: "Articles in the serving corpus generation.",
			read: func(g *generation, _ string) any { return g.store.NumArticles() }},
		{key: "citations", read: func(g *generation, _ string) any { return g.store.NumCitations() }},
		{key: "authors", read: func(g *generation, _ string) any { return g.store.NumAuthors() }},
		{key: "venues", read: func(g *generation, _ string) any { return g.store.NumVenues() }},
		{key: "nonzero_importance", read: func(g *generation, _ string) any { return g.nonZero }},
		{key: "importance_top_mean", read: func(g *generation, _ string) any { return g.topMean }},
		{metric: "sarserve_corpus_bytes", key: "corpus_bytes", help: "Resident bytes of the serving corpus's frozen columns.",
			read: func(g *generation, _ string) any { return g.store.Bytes() }},
		{metric: "sarserve_corpus_mmap_bytes", key: "corpus_mmap_bytes", help: "Bytes of the serving corpus's memory-mapped SCORP file (0 when heap-loaded).",
			read: func(g *generation, _ string) any { return g.store.MappedBytes() }},
		{metric: "sarserve_corpus_load_mode", key: "corpus_load_mode", help: "How the serving corpus is backed: 1 on the active mode's series.",
			label: "mode", values: []string{"mmap", "heap"}, oneHot: true,
			read: func(g *generation, _ string) any { return g.store.LoadMode() }},
		{metric: "sarserve_corpus_load_seconds", key: "corpus_load_seconds", help: "Wall time the boot corpus took to load from disk.",
			read: func(*generation, string) any { return s.cfg.CorpusLoadSeconds }},
		{key: "corpus_fingerprint", read: func(g *generation, _ string) any { return fmt.Sprintf("%016x", g.fingerprint) }},

		{metric: "sarserve_ranking_version", key: "version", help: "Current ranking generation number.",
			read: func(g *generation, _ string) any { return g.version }},
		{key: "source", read: func(g *generation, _ string) any { return g.source }},
		{metric: "sarserve_ranking_scorer", key: "ranking_scorer", help: "Registered scorer behind the serving ranking: 1 on the active scorer's series.",
			label: "scorer", values: core.ScorerNames(), oneHot: true,
			read: func(g *generation, _ string) any { return g.scorer }},
		{key: "ranked_at", read: func(g *generation, _ string) any { return g.rankedAt.UTC().Format(time.RFC3339) }},
		{metric: "sarserve_ranking_staleness_seconds", key: "staleness_seconds", help: "Age of the serving ranking in seconds.",
			read: func(g *generation, _ string) any { return wholeSeconds(s.clock().Sub(g.rankedAt).Seconds()) }},
		{metric: "sarserve_generation_swaps_total", help: "Generation hot-swaps by source.",
			label: "source", values: []string{"ingest", "reload"}, counters: []**obs.Counter{&m.swapsIngest, &m.swapsReload}},
		{metric: "sarserve_ingest_batches_applied_total", help: "Delta batches folded into the corpus (HTTP bodies and spool files).",
			counters: []**obs.Counter{&m.ingestApplied}},
		{metric: "sarserve_ingest_batches_quarantined_total", help: "Malformed spool delta files renamed aside as *.err.",
			counters: []**obs.Counter{&m.ingestQuarantined}},
		{metric: "sarserve_warmstart_iterations_saved_total", help: "Solver iterations avoided by warm-starting re-solves, versus the previous generation's solve.",
			counters: []**obs.Counter{&m.warmSaved}},

		{metric: "sarserve_solver_iterations", key: "%s_iters", help: "Iterations of the last solve by phase.",
			label: "phase", values: phases, read: func(g *generation, p string) any { return phase(g, p).Iterations }},
		{key: "%s_converged", label: "phase", values: phases, read: func(g *generation, p string) any { return phase(g, p).Converged }},
		{metric: "sarserve_solver_residual", key: "%s_residual", help: "Final L1 residual of the last solve by phase.",
			label: "phase", values: phases, read: func(g *generation, p string) any { return phase(g, p).Residual }},
		{metric: "sarserve_solver_phase_seconds", key: "%s_seconds", help: "Wall time of the last solve by phase, in seconds.",
			label: "phase", values: phases, read: func(g *generation, p string) any { return phase(g, p).Elapsed.Seconds() }},
		{key: "solver_extrapolations", read: func(g *generation, _ string) any {
			return g.scores.PrestigeStats.Extrapolations + g.scores.HeteroStats.Extrapolations
		}},
		{metric: "sarserve_solver_extrapolations_total", help: "Accepted Aitken extrapolation steps across every solve this process has run.",
			counters: []**obs.Counter{&m.extrapolations}},
		{metric: "sarserve_solver_iterations_saved", key: "solver_iterations_saved", help: "Estimated plain power-iteration sweeps the last solve's extrapolations avoided.",
			read: func(g *generation, _ string) any {
				return g.scores.PrestigeStats.IterationsSaved + g.scores.HeteroStats.IterationsSaved
			}},
		{metric: "sarserve_solver_reorder_seconds", key: "solver_reorder_seconds", help: "Wall time the serving corpus's freeze-time chronological ordering took.",
			read: func(g *generation, _ string) any { return g.store.ReorderSeconds() }},
		{metric: "sarserve_solver_back_edge_fraction", key: "solver_back_edge_fraction", help: "Share of citation edges the last solve's Gauss-Seidel sweeps read stale: the citing row is not above the cited row in solver order.",
			read: func(g *generation, _ string) any { return g.scores.BackEdgeFraction }},
		{metric: "sarserve_solver_pool_workers", key: "solver_workers", help: "Worker-pool parallelism of the last solve.",
			read: func(g *generation, _ string) any { return g.scores.Pool.Workers }},
		{metric: "sarserve_solver_pool_sweeps", key: "solver_pool_sweeps", help: "Cumulative kernel sweeps the solver pool has executed.",
			read: func(g *generation, _ string) any { return g.scores.Pool.Runs }},

		{key: "max_top_k", read: func(*generation, string) any { return s.maxK }},
		{metric: "sarserve_query_cache_entries", key: "query_cache_entries", help: "Entries resident in the read-path response cache.",
			read: func(*generation, string) any { return s.cache.Len() }},
		{metric: "sarserve_query_cache_hits_total", key: "query_cache_hits", help: "Read responses (/query, /related) served from the generation-keyed cache.",
			counters: []**obs.Counter{&m.cacheHits}},
		{metric: "sarserve_query_cache_misses_total", key: "query_cache_misses", help: "Read responses (/query, /related) computed rather than served from cache.",
			counters: []**obs.Counter{&m.cacheMisses}},
		{metric: "sarserve_query_cache_coalesced_total", key: "query_cache_coalesced", help: "Read responses (/query, /related) that waited on another request's computation of the same cold key instead of computing it.",
			counters: []**obs.Counter{&m.cacheCoalesced}},
		{metric: "sarserve_query_shed_total", key: "query_shed", help: "Read requests shed by admission control (503 + Retry-After).",
			counters: []**obs.Counter{&m.shed}},
		{metric: "sarserve_query_queue_depth", key: "query_queue_depth", help: "Read requests waiting for an admission slot.",
			read: func(*generation, string) any { return s.limiter.QueueDepth() }},
		{metric: "sarserve_related_unconverged_total", help: "/related walks served after stopping at the iteration cap, short of the convergence tolerance.",
			counters: []**obs.Counter{&m.walkUnconverged}},
		{metric: "sarserve_related_walks_cancelled_total", help: "/related walks stopped early because every request waiting on them had hung up.",
			counters: []**obs.Counter{&m.walksCancelled}},

		{key: "traces_recorded", read: func(*generation, string) any { return s.tracer.Count() }},
		{key: "go_goroutines", read: func(*generation, string) any { return int64(m.runtime.Goroutines()) }},
		{key: "go_heap_live_bytes", read: func(*generation, string) any { return int64(m.runtime.HeapLiveBytes()) }},
		{key: "go_version", read: func(*generation, string) any { return m.build.GoVersion }},
		{key: "build_revision", read: func(*generation, string) any { return m.build.Revision }},
	}
}

// value reads series i (label value v) in its /stats JSON type.
func (q *quantity) value(g *generation, i int, v string) any {
	if q.counters != nil {
		return (*q.counters[i]).Value()
	}
	x := q.read(g, v)
	if w, ok := x.(wholeSeconds); ok {
		return int64(w)
	}
	return x
}

// gauge reads series v of a gauge family: a number, or 1 on the
// active label value of a one-hot family and 0 on the others.
func (q *quantity) gauge(g *generation, v string) float64 {
	switch x := reflect.ValueOf(q.read(g, v)); {
	case x.CanInt():
		return float64(x.Int())
	case x.CanUint():
		return float64(x.Uint())
	case x.CanFloat():
		return x.Float()
	case x.Kind() == reflect.String && x.String() == v:
		return 1
	}
	return 0
}

// stats renders every /stats key from the declaration list over g.
func (m *serveMetrics) stats(g *generation) map[string]any {
	out := make(map[string]any, len(m.list))
	for i := range m.list {
		q := &m.list[i]
		switch {
		case q.key == "":
		case q.label == "" || q.oneHot:
			out[q.key] = q.value(g, 0, "")
		default:
			for j, v := range q.values {
				out[fmt.Sprintf(q.key, v)] = q.value(g, j, v)
			}
		}
	}
	return out
}

// solve accrues the per-solve acceleration counters after a ranking
// completes (the boot solve and every rebuild).
func (m *serveMetrics) solve(sc *core.Scores) {
	m.extrapolations.Add(uint64(sc.PrestigeStats.Extrapolations + sc.HeteroStats.Extrapolations))
}

// swap counts one generation swap by source ("ingest" or "reload").
func (m *serveMetrics) swap(source string) {
	if source == "reload" {
		m.swapsReload.Inc()
	} else {
		m.swapsIngest.Inc()
	}
}
