package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/live"
)

// readerInterval paces the reader that runs beside the ingests: one
// hit-class request every 5 ms, 200 requests a second.
const readerInterval = 5 * time.Millisecond

// pacedReader issues hit-class requests on a fixed schedule until
// stopped. Each latency runs from the request's due time, so a stall
// is charged to every request that came due during it.
type pacedReader struct {
	latency []float64 // ms
	errors  int
	stop    chan struct{}
	done    chan struct{}
}

func startPacedReader(m *mixer) *pacedReader {
	p := &pacedReader{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * readerInterval)
			select {
			case <-p.stop:
				return
			case <-time.After(time.Until(due)):
			}
			// Bodies change with the ranking version, so only the
			// status is checked here.
			if _, _, ok := m.hit(false); ok {
				p.latency = append(p.latency, ms(time.Since(due)))
			} else {
				p.errors++
			}
		}
	}()
	return p
}

// finish stops the reader and waits for its last request.
func (p *pacedReader) finish() {
	close(p.stop)
	<-p.done
}

// ingestReply mirrors the answer of POST /admin/ingest.
type ingestReply struct {
	Version      int64 `json:"version"`
	NewArticles  int   `json:"new_articles"`
	NewCitations int   `json:"new_citations"`
}

// ingestOnce posts delta d and waits until one of its new keys
// resolves at the next ranking version. It returns the time from the
// POST being sent to that answer.
func (r *run) ingestOnce(ctl *server, d delta, prevVersion int64) (time.Duration, error) {
	start := time.Now()
	rep, err := ctl.c.post(ctl.base+"/admin/ingest", d.body)
	if err == nil && rep.status != 200 {
		err = fmt.Errorf("ingest: status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	if !r.res.op(err) {
		return 0, err
	}
	var ack ingestReply
	if err := json.Unmarshal(rep.body, &ack); !r.res.op(err) {
		return 0, err
	}
	probe, err := ctl.c.get(ctl.base + "/article?key=" + url.QueryEscape(d.probeKey))
	visible := time.Since(start)
	if err == nil && (probe.status != 200 || probe.header.Get("X-Ranking-Version") != strconv.FormatInt(prevVersion+1, 10)) {
		err = fmt.Errorf("new key %s: status %d at version %s, want 200 at version %d",
			d.probeKey, probe.status, probe.header.Get("X-Ranking-Version"), prevVersion+1)
	}
	if !r.res.op(err) {
		return visible, err
	}
	var bad error
	if ack.NewArticles != d.articles || ack.NewCitations != d.citations || ack.Version != prevVersion+1 {
		bad = fmt.Errorf("ingest acknowledged %d articles, %d citations at version %d; generated %d, %d for version %d",
			ack.NewArticles, ack.NewCitations, ack.Version, d.articles, d.citations, prevVersion+1)
	}
	r.res.op(bad)
	return visible, nil
}

// ingestPhase runs ingests one after another for the budget, at least
// minIngests, beside the paced reader, and checks the corpus grew by
// what was sent.
func (r *run) ingestPhase(s *server, m *mixer, budget time.Duration, minIngests int) (visible []time.Duration, reader *pacedReader, err error) {
	ctl := &server{child: s.child, base: s.base, c: newClient()} // the mixer's client belongs to the reader
	before, err := ctl.stats()
	if err != nil {
		return nil, nil, err
	}
	reader = startPacedReader(m)
	round := 0
	visible, err = repeatFor(budget, minIngests, func() (time.Duration, error) {
		d, err := r.ingestOnce(ctl, makeDelta(r.store, r.cfg.seed, round), before.Version+int64(round))
		round++
		return d, err
	})
	reader.finish()
	if err != nil {
		return visible, reader, err
	}
	after, err := ctl.stats()
	if err == nil && after.Articles != before.Articles+round*deltaArticles {
		err = fmt.Errorf("/stats counts %d articles after %d ingests of %d onto %d",
			after.Articles, round, deltaArticles, before.Articles)
	}
	r.res.op(err)
	var readErr error
	if reader.errors > 0 {
		readErr = fmt.Errorf("%d reads failed during ingest", reader.errors)
	}
	r.res.op(readErr)
	return visible, reader, nil
}

// ingestUnderRead measures writes beside reads: each ingest thaws the
// corpus, applies a 0.1 % delta, freezes and reorders, grows the
// network, solves warm, rebuilds the whole generation and swaps it
// in, while a reader contends for the same cores and heap.
func ingestUnderRead(r *run) error {
	s, m, err := r.serveAndWarm()
	if err != nil {
		return err
	}
	defer s.stop()
	r.setupDone()

	visible, reader, err := r.ingestPhase(s, m, r.budget, minSamples)
	if err != nil {
		return err
	}
	if len(reader.latency) == 0 {
		return errNoSamples
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}

	lat := sortedCopy(reader.latency)
	if highestPercentile(len(lat)) < 90 {
		return fmt.Errorf("%d reads during ingest do not support a p90: %w", len(lat), errNoSamples)
	}
	r.res.addMedian("ingest_visible_s", "s", in(time.Second, visible))
	r.res.add("read_during_ingest_p90_ms", "ms", percentile(lat, 90), len(lat))
	r.res.add("read.during_ingest_p50_ms", "ms", percentile(lat, 50), len(lat))
	r.res.add("ingest_peak_rss_mb", "MB", rss, 1)
	r.res.gate(mPrimary, "ingest_visible_s: POST sent to a new key resolving at version+1", "ms", median(in(time.Millisecond, visible)), len(visible))
	r.res.gate(mSecondary, "read_during_ingest_p90_ms: paced reader, from due time", "ms", percentile(lat, 90), len(lat))
	r.res.gate(mPeakRSS, "ingest_peak_rss_mb: sarserve VmHWM after the last ingest", "MB", rss, 1)
	return nil
}

// ingestUnderReadTraced runs the untraced pass's real ingests beside
// the reader, then replays the stages of Server.Ingest in this process
// on the first delta, one span each, to show the stages sum to the
// whole.
func ingestUnderReadTraced(r *run) error {
	s, m, err := r.serveAndWarm()
	if err != nil {
		return err
	}
	defer s.stop()
	r.setupDone()

	visible, reader, err := r.ingestPhase(s, m, 0, minSamples)
	if err != nil {
		return err
	}
	st, err := s.stats()
	if err != nil {
		return err
	}
	s.stop()
	r.releaseMemory()

	// The generation the ingest starts from, as the server had it.
	store, err := corpus.OpenMapped(r.corpus)
	if err != nil {
		return err
	}
	defer store.Close()
	net := hetnet.Build(store)
	prev, _, err := r.solve("core.solve", 0, net, r.solverOptions())
	if err != nil {
		return err
	}

	stages := stageTimes{}
	var sums []time.Duration
	var warmIters int
	d := makeDelta(r.store, r.cfg.seed, 0)
	for i := 0; i < wholeSamples; i++ {
		sum, warm, err := r.replayIngest(stages, store, net, prev, d)
		if err != nil {
			return err
		}
		sums = append(sums, sum)
		warmIters = warm.PrestigeStats.Iterations + warm.HeteroStats.Iterations
	}

	stages.report(r.res)
	r.res.add("corpus.reorder_s", "s", st.ReorderSeconds, 1)
	r.res.add("core.warm_iters", "count", float64(warmIters), 1)
	lat := sortedCopy(reader.latency)
	r.res.addMedian("ingest.whole_s", "s", in(time.Second, visible))
	r.checkStageSum("ingest.stage_sum_ratio", sums, visible)
	r.res.add("serve.read_err_during_ingest", "count", float64(reader.errors), len(lat)+reader.errors)
	r.res.add("read.during_ingest_p50_ms", "ms", percentile(lat, 50), len(lat))
	r.res.add("read.during_ingest_p90_ms", "ms", percentile(lat, 90), len(lat))
	r.addTraceOverhead(secs(time.Since(r.timedStart)))
	return nil
}

// replayIngest runs the stages of Server.Ingest once on delta d over
// the generation (store, net, prev) and returns what they took
// together and the warm solve's scores.
func (r *run) replayIngest(st stageTimes, store *corpus.Store, net *hetnet.Network, prev *core.Scores, d delta) (time.Duration, *core.Scores, error) {
	root := r.rec.start("ingest", 0, false)
	defer r.rec.end(root)
	var sum time.Duration
	stage := func(metricName string, fn func()) {
		sp := r.rec.timed(strings.TrimSuffix(metricName, "_s"), root.ID, fn)
		st.note(metricName, sp)
		sum += sp.duration()
	}
	var b *corpus.Builder
	stage("corpus.thaw_s", func() { b = store.Thaw() })
	var applied live.DeltaStats
	var err error
	stage("live.apply_delta_s", func() { applied, err = live.ApplyDelta(b, bytes.NewReader(d.body)) })
	if err == nil && (applied.NewArticles != d.articles || applied.NewCitations != d.citations) {
		err = fmt.Errorf("delta applied %d articles, %d citations; generated %d, %d",
			applied.NewArticles, applied.NewCitations, d.articles, d.citations)
	}
	if !r.res.op(err) {
		return 0, nil, err
	}
	var grown *corpus.Store
	stage("corpus.freeze_s", func() { grown = b.Freeze() })
	var net2 *hetnet.Network
	stage("hetnet.grow_s", func() { net2 = hetnet.Grow(net, grown) })
	opts := r.solverOptions()
	opts.InitialScores = core.FromScores(prev, grown.NumArticles())
	warm, warmSpan, err := r.solve("core.solve_warm", root.ID, net2, opts)
	if err != nil {
		return 0, nil, err
	}
	st.note("core.solve_warm_s", warmSpan)
	generationSum, _, err := r.buildGeneration(root.ID, st, grown, net2, warm)
	if err != nil {
		return 0, nil, err
	}
	return sum + warmSpan.duration() + generationSum, warm, nil
}
