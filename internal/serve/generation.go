package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/live"
	"scholarrank/internal/obs"
	"scholarrank/internal/query"
	"scholarrank/internal/rank"
)

// generation is one immutable ranked view of the corpus: the store,
// the network built over it, the solved scores and every index the
// handlers read. Requests load the current generation once and use it
// throughout, so a concurrent swap can never mix two rankings within
// one response. Everything reachable from a generation is read-only
// after construction.
//
// A generation also pins its store's backing mapping (see
// corpus.OpenMapped): refs starts at 1 for the server's own reference
// and every request acquires/releases around its read, so the swap
// that retires a generation cannot munmap pages a live request or
// in-flight solve still touches. Heap-backed stores ride the same
// protocol with a no-op close.
type generation struct {
	version     int64
	source      string // "solve", "snapshot", "ingest" or "reload"
	scorer      string // registered scorer that produced the ranking
	rankedAt    time.Time
	fingerprint uint64

	// refs counts the server's reference plus one per in-flight
	// reader; when it reaches zero the store's mapping reference is
	// released. Guarded by CAS so acquire can fail cleanly once the
	// generation is retired.
	refs atomic.Int64

	store  *corpus.Store
	net    *hetnet.Network
	scores *core.Scores
	order  []int // article indices by descending importance
	pos    []int // pos[article] = 1-based rank position

	// nonZero counts the articles with positive importance and topMean
	// averages the importance of the top 100: /stats constants.
	nonZero int
	topMean float64

	// Entity rankings derived from the article scores (shrunk mean),
	// with their rank orders precomputed once so /authors and /venues
	// slice instead of re-running a top-K selection per request.
	authorScores []float64
	venueScores  []float64
	authorOrder  []int // author ids by descending entity score
	venueOrder   []int // venue ids by descending entity score

	// Filtered top-K retrieval index behind GET /query.
	qidx *query.Index

	// Related-article index (bidirectional personalised walk).
	related *rank.RelatedIndex
	// Explainer answers /compare signal breakdowns in O(1).
	explainer *core.Explainer
}

// newGeneration assembles the immutable serving view for one solved
// ranking. fingerprint is store.Fingerprint(): the snapshot boot
// passes the one it has just matched instead of hashing the corpus a
// second time.
func newGeneration(store *corpus.Store, net *hetnet.Network, scores *core.Scores, fingerprint uint64,
	version int64, source string, rankedAt time.Time) (*generation, error) {
	order := rank.TopK(scores.Importance, store.NumArticles())
	pos := make([]int, store.NumArticles())
	for p, i := range order {
		pos[i] = p + 1
	}
	authorScores, err := rank.AuthorRank(net, scores.Importance, rank.EntityRankOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve: author ranking: %w", err)
	}
	venueScores, err := rank.VenueRank(net, scores.Importance, rank.EntityRankOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve: venue ranking: %w", err)
	}
	related, err := rank.NewRelatedIndex(net, rank.RelatedOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve: related index: %w", err)
	}
	// The generation holds its own reference to the store's backing
	// mapping for as long as it can serve readers.
	if !store.Retain() {
		return nil, fmt.Errorf("serve: corpus mapping already closed")
	}
	scorer := scores.Scorer
	if scorer == "" {
		scorer = core.DefaultScorer
	}
	g := &generation{
		version: version, source: source, scorer: scorer, rankedAt: rankedAt,
		fingerprint: fingerprint,
		store:       store, net: net, scores: scores, order: order, pos: pos,
		authorScores: authorScores, venueScores: venueScores,
		authorOrder: rank.TopK(authorScores, len(authorScores)),
		venueOrder:  rank.TopK(venueScores, len(venueScores)),
		qidx:        query.New(store, order, pos),
		related:     related,
		explainer:   core.NewExplainer(scores),
	}
	for _, v := range scores.Importance {
		if v > 0 {
			g.nonZero++
		}
	}
	if top := order[:min(100, len(order))]; len(top) > 0 {
		for _, i := range top {
			g.topMean += scores.Importance[i]
		}
		g.topMean /= float64(len(top))
	}
	g.refs.Store(1)
	return g, nil
}

// acquire pins the generation for one reader. It reports false when
// the generation has already been retired (refs hit zero), in which
// case the caller must reload the current generation pointer.
func (g *generation) acquire() bool {
	for {
		n := g.refs.Load()
		if n <= 0 {
			return false
		}
		if g.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference; the reference that reaches zero
// releases the store's mapping — no reader can reach it any more.
// Store.Close on a heap store is a no-op, so the protocol is uniform
// across load modes.
func (g *generation) release() {
	if g.refs.Add(-1) == 0 {
		_ = g.store.Close()
	}
}

func (g *generation) view(i int) ArticleView {
	a := g.store.Article(corpus.ArticleID(i))
	n := len(g.order)
	pct := 1.0
	if n > 1 {
		pct = 1 - float64(g.pos[i]-1)/float64(n-1)
	}
	return ArticleView{
		Key: a.Key, Title: a.Title, Year: a.Year, Rank: g.pos[i],
		Importance: g.scores.Importance[i],
		Prestige:   componentAt(g.scores.Prestige, i),
		Popularity: componentAt(g.scores.Popularity, i),
		Hetero:     componentAt(g.scores.Hetero, i),
		Percentile: pct,
	}
}

// componentAt reads one component score; scorers that don't produce a
// component leave its vector nil, which serves as zero.
func componentAt(v []float64, i int) float64 {
	if v == nil {
		return 0
	}
	return v[i]
}

// snapshot packages the generation as a persistable ranking snapshot.
func (g *generation) snapshot() *live.Snapshot {
	return live.Capture(g.store, g.scores, g.version, g.rankedAt.Unix())
}

// Generation mutation — the write side of the server. All rebuilds
// run under s.mu; readers are never blocked, they keep loading the
// old generation until the atomic pointer swap.

// Ingest applies a JSONL delta batch to a thawed copy of the current
// corpus, re-freezes it, re-solves the ranking warm-started from the
// current scores, and atomically swaps the new generation in. An
// empty delta (everything already known) swaps nothing and leaves the
// version unchanged.
// The context carries the caller's trace (the /admin/ingest request
// span, or a background root), so the delta apply and the rebuild's
// solver phases land as child spans of whatever triggered them.
func (s *Server) Ingest(ctx context.Context, r io.Reader) (live.DeltaStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.gen.Load()
	b := prev.store.Thaw()
	_, span := obs.StartSpan(ctx, "ingest.apply")
	stats, err := live.ApplyDelta(b, r)
	span.SetAttr("new_articles", stats.NewArticles)
	span.SetAttr("new_citations", stats.NewCitations)
	span.End()
	if err != nil {
		return stats, err
	}
	if stats.Empty() {
		return stats, nil
	}
	if err := s.rebuildLocked(ctx, b.Freeze(), "ingest"); err != nil {
		return stats, err
	}
	s.metrics.ingestApplied.Inc()
	return stats, nil
}

// Reload drains any pending spool deltas and re-solves the ranking
// even when nothing changed — the operator's "refresh now" lever. It
// reports the cumulative delta stats of the drained files.
func (s *Server) Reload(ctx context.Context) (live.DeltaStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats, store, files, err := s.drainSpoolLocked(0)
	if err != nil {
		return stats, err
	}
	if store == nil {
		store = s.gen.Load().store
	}
	if err := s.rebuildLocked(ctx, store, "reload"); err != nil {
		return stats, err
	}
	s.markApplied(files)
	return stats, nil
}

// rebuildLocked re-ranks store and swaps the resulting generation in.
// The solve is warm-started from the previous generation's raw score
// vectors (extended to the grown corpus), and the network build reuses
// the previous bipartite layers when the delta was citation-only.
// Callers must hold s.mu.
func (s *Server) rebuildLocked(ctx context.Context, store *corpus.Store, source string) error {
	prev := s.gen.Load()
	net := hetnet.Grow(prev.net, store)
	opts := s.cfg.Options
	opts.InitialScores = core.FromScores(prev.scores, store.NumArticles())
	scores, err := s.solve(ctx, net, opts, "solve", obs.Attr{Key: "source", Value: source})
	if err != nil {
		return fmt.Errorf("serve: re-rank: %w", err)
	}
	_, span := obs.StartSpan(ctx, "generation.build")
	gen, err := newGeneration(store, net, scores, store.Fingerprint(), prev.version+1, source, s.clock())
	span.End()
	if err != nil {
		return err
	}
	_, span = obs.StartSpan(ctx, "swap", obs.Attr{Key: "version", Value: gen.version})
	s.gen.Store(gen)
	// Retire the old generation: readers that already acquired it keep
	// it (and its mapping) alive until their release; new readers load
	// the fresh pointer.
	prev.release()
	span.End()
	s.metrics.swap(source)
	s.metrics.solve(scores)
	// Iterations the warm start avoided, with the previous
	// generation's solve standing in for the cold baseline — a small
	// delta's cold re-solve costs about what the previous solve did.
	prevIters := prev.scores.PrestigeStats.Iterations + prev.scores.HeteroStats.Iterations
	newIters := scores.PrestigeStats.Iterations + scores.HeteroStats.Iterations
	if saved := prevIters - newIters; saved > 0 {
		s.metrics.warmSaved.Add(uint64(saved))
	}
	return nil
}

// drainSpoolLocked folds every settled spool delta into a copy of the
// current corpus. Each file is applied to a trial builder thawed from
// the last good frozen store, so a malformed file cannot poison the
// batch: failures are renamed aside (.err) and logged. It returns the
// files it applied, which stay pending until the generation serving
// them has swapped in (markApplied): a failed rebuild leaves them for
// the next drain, and re-applying a file adds nothing twice. The store
// is nil when no file was applied. A debounce of d skips the drain
// while the newest file is younger than d (a producer is still
// writing). Callers must hold s.mu.
func (s *Server) drainSpoolLocked(d time.Duration) (total live.DeltaStats, acc *corpus.Store, applied []string, err error) {
	if s.cfg.SpoolDir == "" {
		return total, nil, nil, nil
	}
	files, err := live.PendingDeltas(s.cfg.SpoolDir)
	if err != nil || len(files) == 0 || d > 0 && s.clock().Sub(live.NewestModTime(files)) < d {
		return total, nil, nil, err
	}
	acc = s.gen.Load().store
	for _, f := range files {
		trial := acc.Thaw()
		stats, err := applyDeltaFile(trial, f.Path)
		if err != nil {
			s.log.Warn("spool delta rejected, quarantining", "file", f.Path, "error", err)
			s.metrics.ingestQuarantined.Inc()
			if rerr := os.Rename(f.Path, f.Path+".err"); rerr != nil {
				s.log.Error("spool quarantine rename failed", "file", f.Path, "error", rerr)
			}
			continue
		}
		acc = trial.Freeze()
		applied = append(applied, f.Path)
		total.NewArticles += stats.NewArticles
		total.NewCitations += stats.NewCitations
		total.DuplicateCitations += stats.DuplicateCitations
		total.DroppedRefs += stats.DroppedRefs
	}
	if len(applied) == 0 {
		return total, nil, nil, nil
	}
	return total, acc, applied, nil
}

// markApplied renames applied spool files .done and counts them, once
// the generation serving them has swapped in. Callers must hold s.mu.
func (s *Server) markApplied(files []string) {
	for _, path := range files {
		s.metrics.ingestApplied.Inc()
		if err := live.MarkDone(path); err != nil {
			s.log.Error("spool mark-done rename failed", "file", path, "error", err)
		}
	}
}

func applyDeltaFile(b *corpus.Builder, path string) (live.DeltaStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return live.DeltaStats{}, err
	}
	defer f.Close()
	return live.ApplyDelta(b, f)
}

// refreshLoop polls the spool directory until Close. Settled deltas
// are ingested and swapped in as one new generation per sweep.
func (s *Server) refreshLoop(interval, debounce time.Duration) {
	defer close(s.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.refreshOnce(debounce)
		}
	}
}

// refreshOnce runs one spool sweep: drain settled files and, if any
// were ingested, rebuild and swap.
func (s *Server) refreshOnce(debounce time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats, store, files, err := s.drainSpoolLocked(debounce)
	if err != nil {
		s.log.Error("spool refresh scan failed", "spool", s.cfg.SpoolDir, "error", err)
		return
	}
	if store == nil {
		return
	}
	// Only sweeps that ingested something get a trace; an idle poll
	// every few seconds would otherwise churn the ring with no-ops.
	ctx, span := obs.StartSpan(s.bg, "spool.refresh")
	err = s.rebuildLocked(ctx, store, "ingest")
	span.End()
	if err != nil {
		s.log.Error("spool refresh re-rank failed", "spool", s.cfg.SpoolDir, "error", err)
		return
	}
	s.markApplied(files)
	g := s.gen.Load()
	s.log.Info("generation swapped",
		"version", g.version, "source", g.source,
		"new_articles", stats.NewArticles, "new_citations", stats.NewCitations)
}

// Close stops the background refresher. The server keeps answering
// read requests from its last generation after Close; only live
// updates stop.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.stop != nil {
			close(s.stop)
			<-s.done
		}
	})
}
