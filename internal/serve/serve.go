// Package serve implements the HTTP ranking service behind the
// sarserve command: query-independent scores computed offline (or
// refreshed live) and exposed as a static signal for a search stack
// to blend with query relevance.
//
// The ranking is served as a sequence of immutable generations. Every
// read handler loads the current generation once through an atomic
// pointer and answers entirely from it, while delta ingestion
// (/admin/ingest, or a watched spool directory) builds the next
// generation off to the side — corpus clone, warm-started re-solve,
// derived indexes — and swaps it in atomically. Readers are never
// blocked and never observe a half-updated ranking.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/live"
	"scholarrank/internal/obs"
	"scholarrank/internal/query"
)

// defaultMaxTopK bounds the page size of every top-K endpoint unless
// Config.MaxTopK overrides it.
const defaultMaxTopK = 1000

// defaultCacheEntries bounds the /query response cache when
// Config.CacheEntries is zero.
const defaultCacheEntries = 4096

// defaultQueueTimeout is how long an over-limit request may wait for
// an admission slot before being shed, when Config.QueueTimeout is
// zero.
const defaultQueueTimeout = 100 * time.Millisecond

// maxIngestBytes bounds one /admin/ingest delta body (64 MiB).
const maxIngestBytes = 64 << 20

// defaultTraceThreshold is the root-span duration at which a trace
// joins the slowest-N retained set, when Config.TraceThreshold is
// zero.
const defaultTraceThreshold = 100 * time.Millisecond

// Config tunes a live ranking server beyond the core solver options.
type Config struct {
	// Options parameterises every (re-)solve.
	Options core.Options
	// Scorer names the registered ranking scorer every (re-)solve runs
	// with; empty selects the default pipeline. See core.ScorerNames.
	Scorer string
	// ScorerOpts is the option bag passed to the selected scorer
	// (per-scorer keys; see core.ScorerDoc).
	ScorerOpts core.ScorerOptions
	// SpoolDir, when set, is watched for JSONL delta files
	// (*.jsonl); see the live package. Ingested files are renamed
	// *.done, malformed ones *.err.
	SpoolDir string
	// RefreshInterval is the spool poll period. Zero disables the
	// background refresher (deltas then only enter through
	// /admin/ingest and /admin/reload).
	RefreshInterval time.Duration
	// Debounce holds a spool sweep back until the newest delta file
	// has been quiet this long, so half-written batches settle before
	// they are ingested. Zero ingests immediately.
	Debounce time.Duration
	// Clock overrides time.Now, for tests.
	Clock func() time.Time

	// MaxTopK bounds the k parameter of every top-K endpoint. Zero
	// selects the default (1000).
	MaxTopK int
	// MaxInflight caps concurrently served read requests (top, query,
	// article, compare, authors, venues, related); excess requests
	// queue up to QueueTimeout and are then shed with
	// 503 + Retry-After. Zero disables admission control.
	MaxInflight int
	// QueueTimeout is how long an over-limit read request may wait for
	// an admission slot. Zero selects the default (100ms) when
	// MaxInflight is set.
	QueueTimeout time.Duration
	// CacheEntries bounds the /query response cache (entries, not
	// bytes). Zero selects the default (4096); negative disables the
	// cache.
	CacheEntries int

	// TraceRing bounds the in-memory ring of recently completed request
	// traces behind GET /debug/traces. Zero selects the obs default
	// (256).
	TraceRing int
	// TraceSlowest bounds how many slow traces are retained past ring
	// churn. Zero selects the obs default (32).
	TraceSlowest int
	// TraceThreshold is the root-span duration at which a trace
	// qualifies for the slowest-N set. Zero selects the default
	// (100ms); negative considers every trace.
	TraceThreshold time.Duration

	// CorpusLoadSeconds records how long the boot corpus took to load
	// from disk (set by the sarserve command); it is reported on
	// GET /stats and as the sarserve_corpus_load_seconds gauge so
	// operators can verify the zero-parse boot path is in effect.
	CorpusLoadSeconds float64

	// Logger receives the server's structured log lines; nil selects
	// the shared obs logger tagged component=serve.
	Logger *slog.Logger
	// Metrics is the registry backing GET /metrics and every serving
	// instrument; nil creates a registry private to this server.
	Metrics *obs.Registry
	// RequestLog, when true, emits one structured log line per request
	// (method, path, status, bytes, duration, request id).
	RequestLog bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in,
	// because profiling endpoints expose process internals.
	EnablePprof bool
}

// Server serves a ranked corpus and keeps it fresh as deltas arrive.
// Build one with New, NewWithConfig or NewFromSnapshot; it is safe
// for concurrent requests, with writes (ingest, reload, refresher)
// serialised internally.
type Server struct {
	cfg     Config
	clock   func() time.Time
	log     *slog.Logger
	metrics *serveMetrics

	// maxK is the resolved MaxTopK bound; cache and limiter are the
	// query subsystem's response cache and admission control (both
	// nil-safe, so unconfigured servers skip them transparently). The
	// cache outlives generations: entries are keyed on the ranking
	// version, so a hot swap orphans stale entries instead of needing
	// a flush.
	maxK    int
	cache   *query.Cache
	limiter *query.Limiter

	// tracer collects completed request and background-operation
	// traces; bg is the tracer-carrying root context for daemon work
	// (boot solve, spool refresher) that has no inbound request.
	tracer *obs.Tracer
	bg     context.Context

	// gen is the serving state: swapped atomically, never mutated.
	gen atomic.Pointer[generation]

	// mu serialises generation rebuilds. Each rebuild solves on an
	// engine of its own (see solve), so nothing of a solve outlives it.
	mu sync.Mutex

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New ranks the corpus and returns a ready Server.
func New(store *corpus.Store, opts core.Options) (*Server, error) {
	return NewWithConfig(store, Config{Options: opts})
}

// NewWithConfig ranks the corpus and returns a Server with live
// updates configured. Callers must Close the server to stop the
// refresher.
func NewWithConfig(store *corpus.Store, cfg Config) (*Server, error) {
	s := newServerShell(cfg)
	net := hetnet.Build(store)
	scores, err := s.solve(s.bg, net, cfg.Options, "boot.solve")
	if err != nil {
		return nil, fmt.Errorf("serve: rank: %w", err)
	}
	gen, err := newGeneration(store, net, scores, store.Fingerprint(), 1, "solve", s.clock())
	if err != nil {
		return nil, err
	}
	s.gen.Store(gen)
	s.metrics.solve(scores)
	s.startRefresher()
	return s, nil
}

// NewFromSnapshot boots a server from a persisted ranking snapshot
// without re-solving: the snapshot is verified against the corpus by
// fingerprint, so a stale or mismatched snapshot fails loudly instead
// of serving wrong scores. The first live update is the first solve.
func NewFromSnapshot(store *corpus.Store, snap *live.Snapshot, cfg Config) (*Server, error) {
	if err := snap.Matches(store); err != nil {
		return nil, err
	}
	s := newServerShell(cfg)
	version := snap.Seq
	if version < 1 {
		version = 1
	}
	gen, err := newGeneration(store, hetnet.Build(store), snap.Scores(), snap.Fingerprint, version, "snapshot",
		time.Unix(snap.CreatedUnix, 0))
	if err != nil {
		return nil, err
	}
	s.gen.Store(gen)
	s.startRefresher()
	return s, nil
}

func newServerShell(cfg Config) *Server {
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Logger("serve")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{cfg: cfg, clock: clock, log: logger}
	s.metrics = newServeMetrics(s, reg)
	s.maxK = cfg.MaxTopK
	if s.maxK <= 0 {
		s.maxK = defaultMaxTopK
	}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = defaultCacheEntries
	}
	s.cache = query.NewCache(entries) // nil (disabled) when entries < 0
	timeout := cfg.QueueTimeout
	if timeout == 0 {
		timeout = defaultQueueTimeout
	}
	s.limiter = query.NewLimiter(cfg.MaxInflight, timeout)
	threshold := cfg.TraceThreshold
	if threshold == 0 {
		threshold = defaultTraceThreshold
	} else if threshold < 0 {
		threshold = 0
	}
	s.tracer = obs.NewTracer(cfg.TraceRing, cfg.TraceSlowest, threshold)
	s.bg = s.tracer.BackgroundContext()
	return s
}

func (s *Server) startRefresher() {
	if s.cfg.SpoolDir == "" || s.cfg.RefreshInterval <= 0 {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.refreshLoop(s.cfg.RefreshInterval, s.cfg.Debounce)
}

// pin loads the current generation and acquires a reference so its
// store (and any backing mapping) outlives the caller's read even
// across a concurrent hot swap. acquire only fails on a generation
// retired between the Load and the CAS, so the loop reloads and wins
// on the next round — the serving generation always holds the
// server's own reference. Callers must release the generation.
func (s *Server) pin() *generation {
	for {
		g := s.gen.Load()
		if g.acquire() {
			return g
		}
	}
}

// current returns the pinned serving generation and stamps its
// version and producing scorer on the response, so clients (and the
// hot-swap tests) can correlate a payload with the ranking that
// produced it. Callers must release the generation when the response
// is written.
func (s *Server) current(w http.ResponseWriter) *generation {
	g := s.pin()
	w.Header().Set("X-Ranking-Version", strconv.FormatInt(g.version, 10))
	w.Header().Set("X-Ranking-Scorer", g.scorer)
	return g
}

// scorerName resolves the configured scorer name, defaulting to the
// standard QISA pipeline.
func (s *Server) scorerName() string {
	if s.cfg.Scorer == "" {
		return core.DefaultScorer
	}
	return s.cfg.Scorer
}

// Version returns the current generation number; it increments on
// every successful ingest or reload.
func (s *Server) Version() int64 { return s.gen.Load().version }

// ArticleView is the JSON shape of one ranked article.
type ArticleView struct {
	Key        string  `json:"key"`
	Title      string  `json:"title,omitempty"`
	Year       int     `json:"year"`
	Rank       int     `json:"rank"`
	Importance float64 `json:"importance"`
	Prestige   float64 `json:"prestige"`
	Popularity float64 `json:"popularity"`
	Hetero     float64 `json:"hetero"`
	Percentile float64 `json:"percentile"`
}

// Handler returns the HTTP routing for the service. Every route is
// instrumented (latency histogram, status-class counters, in-flight
// gauge) and tagged with a request correlation id; the registry
// itself is scraped at GET /metrics. With Config.EnablePprof the
// net/http/pprof handlers are mounted under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, s.metrics.http.Wrap(name, h))
	}
	// Ranking reads: pure functions of the serving generation, so they
	// get ETag/If-None-Match handling and sit behind admission control.
	read := func(pattern, name string, h func(http.ResponseWriter, *http.Request, *generation)) {
		route(pattern, name, s.admit(s.read(h)))
	}
	route("GET /healthz", "/healthz", s.handleHealthz)
	route("GET /stats", "/stats", s.handleStats)
	read("GET /top", "/top", s.handleTop)
	read("GET /query", "/query", s.handleQuery)
	read("GET /article", "/article", s.handleArticle)
	read("GET /compare", "/compare", s.handleCompare)
	read("GET /authors", "/authors", s.handleAuthors)
	read("GET /venues", "/venues", s.handleVenues)
	read("GET /related", "/related", s.handleRelated)
	route("POST /admin/ingest", "/admin/ingest", s.handleIngest)
	route("POST /admin/reload", "/admin/reload", s.handleReload)
	route("GET /admin/snapshot", "/admin/snapshot", s.handleSnapshot)
	mux.Handle("GET /metrics", s.metrics.http.Wrap("/metrics", s.metrics.reg.Handler()))
	mux.Handle("GET /debug/traces", s.metrics.http.Wrap("/debug/traces", s.tracer.Handler()))
	if s.cfg.EnablePprof {
		obs.MountPprof(mux)
	}
	// Every request runs under a root span (inbound traceparent
	// adopted, Server-Timing emitted); with RequestLog the middleware
	// additionally logs one canonical wide event per request.
	var wide *slog.Logger
	if s.cfg.RequestLog {
		wide = s.log
	}
	return obs.RequestID(s.tracer.Middleware(wide, mux))
}

// read adapts a generation-scoped read handler: it pins the serving
// generation for the request's lifetime, stamps the ranking version
// and validator headers, and answers 304 Not Modified when the client
// already holds this generation's payload. The ETag is the ranking
// version — every response from one generation shares it, so between
// hot swaps clients and proxies revalidate for free and a swap
// changes the validator everywhere at once.
func (s *Server) read(h func(http.ResponseWriter, *http.Request, *generation)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g := s.current(w)
		defer g.release()
		etag := `"` + strconv.FormatInt(g.version, 10) + `"`
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "public, no-cache")
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h(w, r, g)
	}
}

// etagMatch reports whether an If-None-Match header value matches
// etag: the wildcard, or any member of the comma-separated list
// (weak validators compare equal — the payload is byte-identical
// within a generation).
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// admit applies admission control to one read route. Requests beyond
// the in-flight limit queue briefly; when the queue wait times out
// (or the client gives up) the request is shed with 503 and a
// Retry-After hint instead of joining an unbounded backlog.
// A queue span records the admission wait on every read request —
// zero-length without a limiter — so the request's Server-Timing and
// trace always decompose into queue + work. The span's derived
// context is deliberately not propagated: later spans (cache, index)
// are siblings of queue under the root, not children of it.
func (s *Server) admit(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, span := obs.StartSpan(r.Context(), "queue")
		if s.limiter == nil {
			span.End()
			next(w, r)
			return
		}
		if !s.limiter.Acquire(r.Context()) {
			span.SetAttr("shed", true)
			span.End()
			s.metrics.shed.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "overloaded, retry later")
			return
		}
		span.End()
		defer s.limiter.Release()
		next(w, r)
	}
}

// handleHealthz reports liveness plus the freshness of the ranking:
// which generation is serving, when it was solved, and how stale it
// is — what a fleet scheduler scrapes to decide if an instance fell
// behind the corpus.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	g := s.current(w)
	defer g.release()
	writeJSON(w, map[string]any{
		"status":            "ok",
		"version":           g.version,
		"source":            g.source,
		"ranked_at":         g.rankedAt.UTC().Format(time.RFC3339),
		"staleness_seconds": int64(s.clock().Sub(g.rankedAt).Seconds()),
	})
}

// handleIngest accepts a JSONL delta batch, folds it into the corpus
// and swaps in the re-ranked generation before responding.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	stats, err := s.Ingest(r.Context(), http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	g := s.current(w)
	defer g.release()
	writeJSON(w, map[string]any{
		"version":             g.version,
		"articles":            g.store.NumArticles(),
		"citations":           g.store.NumCitations(),
		"new_articles":        stats.NewArticles,
		"new_citations":       stats.NewCitations,
		"duplicate_citations": stats.DuplicateCitations,
		"dropped_refs":        stats.DroppedRefs,
		"noop":                stats.Empty(),
	})
}

// handleReload drains the spool and forces a re-solve.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	stats, err := s.Reload(r.Context())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "reload: %v", err)
		return
	}
	g := s.current(w)
	defer g.release()
	writeJSON(w, map[string]any{
		"version":       g.version,
		"articles":      g.store.NumArticles(),
		"citations":     g.store.NumCitations(),
		"new_articles":  stats.NewArticles,
		"new_citations": stats.NewCitations,
	})
}

// handleSnapshot streams the current ranking as a checksummed binary
// snapshot — the artifact a fresh replica boots from with -scores.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	g := s.current(w)
	defer g.release()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=ranking-v%d.snap", g.version))
	_, span := obs.StartSpan(r.Context(), "snapshot", obs.Attr{Key: "version", Value: g.version})
	err := live.WriteSnapshot(w, g.snapshot())
	span.End()
	if err != nil {
		s.log.Error("write snapshot", "version", g.version, "error", err)
	}
}

// handleRelated returns the articles most related to a seed article:
// the "readers of this paper also need" endpoint.
func (s *Server) handleRelated(w http.ResponseWriter, r *http.Request, g *generation) {
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	id, ok := g.store.ArticleByKey(key)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown article %q", key)
		return
	}
	k, ok := s.parseK(w, r, g.store.NumArticles())
	if !ok {
		return
	}
	// A related query runs a personalised walk over the whole graph —
	// by far the dearest read — so its responses ride the same
	// generation-keyed cache as /query, and concurrent requests for one
	// cold key share one walk.
	ckey := fmt.Sprintf("related|%d|%s|%d", g.version, key, k)
	s.serveCached(w, r, ckey, func(ctx context.Context) (any, error) {
		_, span := obs.StartSpan(ctx, "walk")
		related, stats, err := g.related.RelatedStats(ctx, id, k)
		cancelled := errors.Is(err, context.Canceled)
		span.SetAttr("results", len(related))
		span.SetAttr("iters", stats.Iterations)
		span.SetAttr("residual", stats.Residual)
		span.SetAttr("converged", stats.Converged)
		span.SetAttr("cancelled", cancelled)
		span.End()
		if cancelled {
			// Every request waiting on this walk has hung up.
			s.metrics.walksCancelled.Inc()
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("related: %w", err)
		}
		if !stats.Converged {
			// The ranking is still served — it is the best the iteration
			// budget bought — but never silently.
			s.metrics.walkUnconverged.Inc()
		}
		_, span = obs.StartSpan(ctx, "corpus")
		out := make([]ArticleView, 0, len(related))
		for _, i := range related {
			out = append(out, g.view(i))
		}
		span.End()
		return out, nil
	})
}

// EntityView is the JSON shape of one ranked author or venue.
type EntityView struct {
	Key      string  `json:"key"`
	Name     string  `json:"name,omitempty"`
	Rank     int     `json:"rank"`
	Score    float64 `json:"score"`
	Articles int     `json:"articles"`
}

func (s *Server) handleAuthors(w http.ResponseWriter, r *http.Request, g *generation) {
	k, ok := s.parseK(w, r, len(g.authorScores))
	if !ok {
		return
	}
	out := make([]EntityView, 0, k)
	for pos, i := range g.authorOrder[:k] {
		a := g.store.Author(corpus.AuthorID(i))
		out = append(out, EntityView{
			Key: a.Key, Name: a.Name, Rank: pos + 1,
			Score:    g.authorScores[i],
			Articles: len(g.net.AuthorArticles(corpus.AuthorID(i))),
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleVenues(w http.ResponseWriter, r *http.Request, g *generation) {
	k, ok := s.parseK(w, r, len(g.venueScores))
	if !ok {
		return
	}
	out := make([]EntityView, 0, k)
	for pos, i := range g.venueOrder[:k] {
		v := g.store.Venue(corpus.VenueID(i))
		out = append(out, EntityView{
			Key: v.Key, Name: v.Name, Rank: pos + 1,
			Score:    g.venueScores[i],
			Articles: len(g.net.VenueArticles(corpus.VenueID(i))),
		})
	}
	writeJSON(w, out)
}

// parseK extracts and validates the k query parameter, clamped to n.
func (s *Server) parseK(w http.ResponseWriter, r *http.Request, n int) (int, bool) {
	k := 20
	if v := r.URL.Query().Get("k"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 || parsed > s.maxK {
			httpError(w, http.StatusBadRequest, "k must be an integer in 1..%d", s.maxK)
			return 0, false
		}
		k = parsed
	}
	if k > n {
		k = n
	}
	return k, true
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request, g *generation) {
	k, ok := s.parseK(w, r, len(g.order))
	if !ok {
		return
	}
	_, span := obs.StartSpan(r.Context(), "corpus")
	out := make([]ArticleView, 0, k)
	for _, i := range g.order[:k] {
		out = append(out, g.view(i))
	}
	span.End()
	writeJSON(w, out)
}

func (s *Server) handleArticle(w http.ResponseWriter, r *http.Request, g *generation) {
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	id, ok := g.store.ArticleByKey(key)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown article %q", key)
		return
	}
	writeJSON(w, g.view(int(id)))
}

// handleCompare reports the relative order of two articles with their
// full signal breakdown — the "why is X above Y" debugging endpoint.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request, g *generation) {
	q := r.URL.Query()
	ka, kb := q.Get("a"), q.Get("b")
	if ka == "" || kb == "" {
		httpError(w, http.StatusBadRequest, "need a and b parameters")
		return
	}
	ia, ok := g.store.ArticleByKey(ka)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown article %q", ka)
		return
	}
	ib, ok := g.store.ArticleByKey(kb)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown article %q", kb)
		return
	}
	va, vb := g.view(int(ia)), g.view(int(ib))
	winner := va.Key
	if vb.Rank < va.Rank {
		winner = vb.Key
	}
	resp := map[string]any{"a": va, "b": vb, "winner": winner}
	if ia != ib {
		ex, err := g.explainer.Explain(int(ia), int(ib))
		if err == nil {
			resp["dominant_signal"] = ex.Dominant
			resp["signal_deltas"] = ex.Signals
		}
	}
	writeJSON(w, resp)
}

// QueryResponse is the JSON shape of one filtered top-K page.
type QueryResponse struct {
	Version int64 `json:"version"`
	Count   int   `json:"count"`
	// Results are in global rank order (best first).
	Results []ArticleView `json:"results"`
	// NextCursor resumes after the last result; absent on the final
	// page. Cursors are opaque and generation-scoped: after a hot swap
	// they answer 410 Gone and pagination restarts.
	NextCursor string `json:"next_cursor,omitempty"`
}

// handleQuery answers filtered top-K retrieval: articles by an
// author and/or venue within a publication-year window, in global
// rank order, paginated by an opaque cursor. Responses are served
// from the generation-keyed LRU cache when the same normalized
// request was answered under this ranking version before.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, g *generation) {
	q := r.URL.Query()
	f := query.Filter{Author: -1, Venue: -1}
	authorKey, venueKey := q.Get("author"), q.Get("venue")
	if authorKey != "" {
		id, ok := g.store.AuthorByKey(authorKey)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown author %q", authorKey)
			return
		}
		f.Author = id
	}
	if venueKey != "" {
		id, ok := g.store.VenueByKey(venueKey)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown venue %q", venueKey)
			return
		}
		f.Venue = id
	}
	// Open window ends normalize to the corpus year bounds, so
	// "from=1800" and an absent from produce the same cache key.
	f.From, f.To = g.qidx.YearBounds()
	for _, p := range []struct {
		name string
		dst  *int
	}{{"from", &f.From}, {"to", &f.To}} {
		if v := q.Get(p.name); v != "" {
			y, err := strconv.Atoi(v)
			if err != nil {
				httpError(w, http.StatusBadRequest, "%s must be an integer year", p.name)
				return
			}
			*p.dst = y
		}
	}
	k, ok := s.parseK(w, r, g.store.NumArticles())
	if !ok {
		return
	}
	f.K = k
	if c := q.Get("cursor"); c != "" {
		ver, after, err := decodeCursor(c)
		if err != nil {
			httpError(w, http.StatusBadRequest, "malformed cursor")
			return
		}
		if ver != g.version {
			httpError(w, http.StatusGone,
				"cursor is from ranking version %d, now serving %d: restart pagination", ver, g.version)
			return
		}
		f.After = after
	}

	key := fmt.Sprintf("query|%d|%s|%s|%d|%d|%d|%d",
		g.version, authorKey, venueKey, f.From, f.To, f.K, f.After)
	s.serveCached(w, r, key, func(ctx context.Context) (any, error) {
		_, span := obs.StartSpan(ctx, "index")
		ids, more := g.qidx.Search(f)
		span.SetAttr("results", len(ids))
		span.End()
		_, span = obs.StartSpan(ctx, "corpus")
		resp := QueryResponse{Version: g.version, Count: len(ids),
			Results: make([]ArticleView, 0, len(ids))}
		for _, id := range ids {
			resp.Results = append(resp.Results, g.view(int(id)))
		}
		span.End()
		if more && len(ids) > 0 {
			resp.NextCursor = encodeCursor(g.version, g.qidx.Pos(ids[len(ids)-1]))
		}
		return &resp, nil
	})
}

// statusClientClosed is the status recorded for a request whose client
// hung up before its answer was ready (nginx's 499). Nobody reads it;
// it keeps the request out of the 5xx class.
const statusClientClosed = 499

// serveCached answers a cacheable read through the response cache:
// from a resident body, from another request's computation of the same
// key, or by computing it here with compute, whose value is encoded as
// JSON and cached. The key must embed the generation version
// (invalidation by keying). compute runs under the cache's flight
// context, which ends only when every request waiting on the key has
// gone (query.Cache.Do), and its spans land in the computing request's
// trace.
//
// The lookup is recorded as a cache span whose hit attribute drives
// the cache=hit|miss field of the wide-event request log. A request
// that waits on another's computation counts as coalesced, and its
// cache span covers the wait and carries coalesced=true, so its
// Server-Timing accounts for the latency.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, compute func(ctx context.Context) (any, error)) {
	_, span := obs.StartSpan(r.Context(), "cache")
	body, how, err := s.cache.Do(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		span.SetAttr("hit", false)
		span.End()
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		return append(body, '\n'), nil
	})
	switch how {
	case query.Hit:
		span.SetAttr("hit", true)
		s.metrics.cacheHits.Inc()
	case query.Coalesced:
		span.SetAttr("hit", false)
		span.SetAttr("coalesced", true)
		s.metrics.cacheCoalesced.Inc()
	default:
		s.metrics.cacheMisses.Inc()
	}
	span.End()
	switch {
	case err != nil && r.Context().Err() != nil:
		w.WriteHeader(statusClientClosed)
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}
}

// encodeCursor packs (generation version, last rank position) into an
// opaque page token.
func encodeCursor(version int64, pos int) string {
	raw := strconv.FormatInt(version, 10) + ":" + strconv.Itoa(pos)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// decodeCursor unpacks a page token produced by encodeCursor.
func decodeCursor(c string) (version int64, after int, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(c)
	if err != nil {
		return 0, 0, err
	}
	ver, pos, ok := strings.Cut(string(raw), ":")
	if !ok {
		return 0, 0, fmt.Errorf("serve: cursor missing separator")
	}
	if version, err = strconv.ParseInt(ver, 10, 64); err != nil {
		return 0, 0, err
	}
	if after, err = strconv.Atoi(pos); err != nil || after < 0 {
		return 0, 0, fmt.Errorf("serve: bad cursor position %q", pos)
	}
	return version, after, nil
}

// handleStats renders every /stats key of the declaration list over
// the serving generation.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.current(w)
	defer g.release()
	writeJSON(w, s.metrics.stats(g))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.Logger("serve").Error("encode response", "error", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
