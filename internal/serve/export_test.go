package serve

import (
	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/live"
	"scholarrank/internal/obs"
)

// Helpers only the tests call: they reach into the serving generation
// the way a handler does.

// newFromScores wraps precomputed scores in a server without solving.
func newFromScores(store *corpus.Store, scores *core.Scores) (*Server, error) {
	s := newServerShell(Config{})
	gen, err := newGeneration(store, hetnet.Build(store), scores, store.Fingerprint(), 1, "solve", s.clock())
	if err != nil {
		return nil, err
	}
	s.gen.Store(gen)
	return s, nil
}

// Snapshot packages the current generation as a persistable ranking
// snapshot.
func (s *Server) Snapshot() *live.Snapshot {
	g := s.pin()
	defer g.release()
	return g.snapshot()
}

// Percentile returns the rank percentile of an article key.
func (s *Server) Percentile(key string) (float64, bool) {
	g := s.pin()
	defer g.release()
	id, ok := g.store.ArticleByKey(key)
	if !ok {
		return 0, false
	}
	return g.view(int(id)).Percentile, true
}

// Tracer returns the server's trace collector.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }
