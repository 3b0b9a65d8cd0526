package serve

import (
	"context"

	"scholarrank/internal/core"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/obs"
)

// solve ranks net with the configured scorer on an engine local to the
// call, so no solver state (operators, warm vectors) outlives the
// solve. It runs under a span named name carrying one child span per
// solver phase (solve.prestige, solve.hetero) with the iteration count
// and final residual as attributes. The phase hook chains onto any
// Trace hook already installed on opts rather than replacing it; the
// solver invokes it synchronously from one goroutine, so phase
// transitions are ordered.
func (s *Server) solve(ctx context.Context, net *hetnet.Network, opts core.Options, name string, attrs ...obs.Attr) (*core.Scores, error) {
	ctx, span := obs.StartSpan(ctx, name, attrs...)
	defer span.End()
	prev := opts.Trace
	var cur *obs.Span
	var phase string
	opts.Trace = func(ev core.TraceEvent) {
		if ev.Phase != phase {
			cur.End()
			phase = ev.Phase
			_, cur = obs.StartSpan(ctx, "solve."+ev.Phase)
		}
		cur.SetAttr("iterations", ev.Iteration)
		cur.SetAttr("residual", ev.Residual)
		if prev != nil {
			prev(ev)
		}
	}
	defer func() { cur.End() }() // the phase still open when the solve returns
	return core.NewEngine(net).RankScorer(s.scorerName(), s.cfg.ScorerOpts, opts)
}
