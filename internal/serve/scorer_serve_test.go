package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"scholarrank/internal/core"
)

// TestServeWithScorer boots a server on a non-default scorer and
// checks the scorer is threaded through every surface: response
// headers, /stats, /metrics, snapshots, and the rebuild path — and
// that endpoints reading component vectors the scorer never computed
// stay nil-safe.
func TestServeWithScorer(t *testing.T) {
	srv, err := NewWithConfig(fixtureStore(t), Config{
		Options:    core.DefaultOptions(),
		Scorer:     core.ScorerEWPR,
		ScorerOpts: core.ScorerOptions{"damping": 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	rec := get(t, h, "/top?k=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("/top status = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Ranking-Scorer"); got != core.ScorerEWPR {
		t.Errorf("X-Ranking-Scorer = %q, want %q", got, core.ScorerEWPR)
	}
	var views []ArticleView
	if err := json.Unmarshal(rec.Body.Bytes(), &views); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v.Importance <= 0 && v.Rank == 1 {
			t.Errorf("top article has no importance: %+v", v)
		}
		// ewpr computes no component signals; the views must read them
		// as zero rather than panicking on nil vectors.
		if v.Prestige != 0 || v.Popularity != 0 || v.Hetero != 0 {
			t.Errorf("ewpr view invented component scores: %+v", v)
		}
	}

	// /compare touches the explainer, which must tolerate a scorer with
	// no component signals.
	if rec := get(t, h, "/compare?a=a&b=d"); rec.Code != http.StatusOK {
		t.Errorf("/compare status = %d: %s", rec.Code, rec.Body)
	}

	rec = get(t, h, "/stats")
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["ranking_scorer"] != core.ScorerEWPR {
		t.Errorf("/stats ranking_scorer = %v, want %q", stats["ranking_scorer"], core.ScorerEWPR)
	}

	body := get(t, h, "/metrics").Body.String()
	if !strings.Contains(body, `sarserve_ranking_scorer{scorer="ewpr"} 1`) {
		t.Errorf("/metrics missing active scorer series:\n%s", body)
	}
	if !strings.Contains(body, `sarserve_ranking_scorer{scorer="default"} 0`) {
		t.Errorf("/metrics missing inactive default scorer series")
	}

	if sn := srv.Snapshot(); sn.Scorer != core.ScorerEWPR || sn.ScorerOpts["damping"] != 0.9 {
		t.Errorf("snapshot scorer = %q opts %v", sn.Scorer, sn.ScorerOpts)
	}

	// A forced re-solve must rebuild with the configured scorer, not
	// fall back to the default pipeline.
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, h, "/healthz"); rec.Header().Get("X-Ranking-Scorer") != core.ScorerEWPR {
		t.Errorf("post-reload scorer header = %q", rec.Header().Get("X-Ranking-Scorer"))
	}
	if srv.Version() != 2 {
		t.Errorf("reload did not swap a generation: version %d", srv.Version())
	}
}

// TestServeBaselineScorer boots a generation on one of the compared
// baselines: it is a registered scorer like any other, so it serves
// every route and is labelled on every scorer surface.
func TestServeBaselineScorer(t *testing.T) {
	srv, err := NewWithConfig(fixtureStore(t), Config{Options: core.DefaultOptions(), Scorer: core.ScorerCiteRank})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, route := range []string{"/top?k=3", "/article?key=a&explain=1", "/compare?a=a&b=d"} {
		rec := get(t, h, route)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d: %s", route, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Ranking-Scorer"); got != core.ScorerCiteRank {
			t.Errorf("%s: X-Ranking-Scorer = %q, want %q", route, got, core.ScorerCiteRank)
		}
	}
	var view ArticleView
	if err := json.Unmarshal(get(t, h, "/article?key=a&explain=1").Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Importance <= 0 || view.Rank < 1 {
		t.Errorf("article view = %+v, want a ranked article with importance", view)
	}
	// One series per registered scorer, the active one at 1.
	body := get(t, h, "/metrics").Body.String()
	for _, name := range core.ScorerNames() {
		want := 0
		if name == core.ScorerCiteRank {
			want = 1
		}
		series := fmt.Sprintf(`sarserve_ranking_scorer{scorer=%q} %d`, name, want)
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if got := strings.Count(body, "sarserve_ranking_scorer{"); got != len(core.ScorerNames()) {
		t.Errorf("/metrics has %d scorer series, want %d", got, len(core.ScorerNames()))
	}
}

// TestServeDefaultScorerLabel checks an unconfigured server reports
// the default pipeline on every scorer surface.
func TestServeDefaultScorerLabel(t *testing.T) {
	h := fixtureServer(t).Handler()
	rec := get(t, h, "/top")
	if got := rec.Header().Get("X-Ranking-Scorer"); got != core.DefaultScorer {
		t.Errorf("X-Ranking-Scorer = %q, want %q", got, core.DefaultScorer)
	}
	body := get(t, h, "/metrics").Body.String()
	if !strings.Contains(body, `sarserve_ranking_scorer{scorer="default"} 1`) {
		t.Errorf("/metrics missing active default scorer series:\n%s", body)
	}
}

// TestServeUnknownScorerFailsLoudly pins boot behaviour on a
// misconfigured scorer name: a clear error, not a silent fallback.
func TestServeUnknownScorerFailsLoudly(t *testing.T) {
	_, err := NewWithConfig(fixtureStore(t), Config{
		Options: core.DefaultOptions(),
		Scorer:  "no-such-scorer",
	})
	if err == nil || !strings.Contains(err.Error(), "no-such-scorer") {
		t.Fatalf("boot with unknown scorer: err = %v", err)
	}
}
