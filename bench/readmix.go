package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/query"
)

// mixer drives the read mix against one server: a closed loop on one
// connection that alternates a miss-class and a hit-class request.
type mixer struct {
	s        *server
	res      *result
	universe *missUniverse
	hot      []string
	hotSums  []uint64 // body hash of each hot request's first fetch
	missRNG  *rand.Rand
	zipf     *rand.Zipf
	issued   int // miss requests issued so far, for 1-in-100 sampling
}

func bodySum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// newMixer fetches every hot request once, which both warms the
// response cache and fixes the bodies later fetches must equal.
func newMixer(s *server, res *result, store *corpus.Store, seed int64) (*mixer, error) {
	u := newMissUniverse(store)
	m := &mixer{s: s, res: res, universe: u, hot: hotSet(u, seed),
		missRNG: newRNG(seed, "miss"), zipf: hotZipf(seed)}
	m.hotSums = make([]uint64, len(m.hot))
	for i, path := range m.hot {
		r, err := s.c.get(s.base + path)
		if err == nil && r.status != 200 {
			err = fmt.Errorf("warm %s: status %d", path, r.status)
		}
		if !res.op(err) {
			return nil, err
		}
		m.hotSums[i] = bodySum(r.body)
	}
	return m, nil
}

// hit issues one hit-class request and, with sameBody set, checks
// the body is the one first fetched (true as long as the ranking
// version stands). It returns the reply, for its latency and headers,
// and the path requested.
func (m *mixer) hit(sameBody bool) (reply, string, bool) {
	i := int(m.zipf.Uint64())
	r, err := m.s.c.get(m.s.base + m.hot[i])
	switch {
	case err != nil:
	case r.status != 200:
		err = fmt.Errorf("hit %s: status %d", m.hot[i], r.status)
	case sameBody && bodySum(r.body) != m.hotSums[i]:
		err = fmt.Errorf("hit %s: body differs from first fetch", m.hot[i])
	}
	return r, m.hot[i], m.res.op(err)
}

// sampledMiss is a miss response kept for the brute-force check.
type sampledMiss struct {
	req  queryReq
	body []byte
}

// classSamples are the observations of one request class.
type classSamples struct {
	latency []float64            // client latency, ms
	timing  map[string][]float64 // Server-Timing entries, ms, by span name
	queries int                  // /query responses seen
	cached  int                  // of those, answered without touching the index
}

func (c *classSamples) observe(r reply, path string, timing bool) {
	c.latency = append(c.latency, ms(r.latency))
	if !timing {
		return
	}
	st := parseServerTiming(r.header.Get("Server-Timing"))
	if c.timing == nil {
		c.timing = map[string][]float64{}
	}
	for name, d := range st {
		c.timing[name] = append(c.timing[name], d)
	}
	if strings.HasPrefix(path, "/query") {
		c.queries++
		if _, walked := st["index"]; !walked {
			c.cached++
		}
	}
}

func (c *classSamples) p(pct float64) float64 { return percentile(sortedCopy(c.latency), pct) }

func (c *classSamples) timingP50(name string) float64 {
	if len(c.timing[name]) == 0 {
		return 0
	}
	return median(c.timing[name])
}

// mixSegment is one closed-loop stretch of the mix.
type mixSegment struct {
	miss, hit classSamples
	sampled   []sampledMiss
	elapsed   time.Duration
}

// loop runs the closed loop for d. With timing set it also harvests
// every response's Server-Timing header.
func (m *mixer) loop(d time.Duration, timing bool) *mixSegment {
	seg := &mixSegment{}
	start := time.Now()
	for time.Since(start) < d {
		req := m.universe.request(m.missRNG.Intn(m.universe.size()))
		path := req.path()
		r, err := m.s.c.get(m.s.base + path)
		if err == nil && r.status != 200 {
			err = fmt.Errorf("miss %s: status %d", path, r.status)
		}
		if m.res.op(err) {
			seg.miss.observe(r, path, timing)
			if m.issued%100 == 0 {
				seg.sampled = append(seg.sampled, sampledMiss{req, append([]byte(nil), r.body...)})
			}
		}
		m.issued++
		if r, path, ok := m.hit(true); ok {
			seg.hit.observe(r, path, timing)
		}
	}
	seg.elapsed = time.Since(start)
	return seg
}

// checkSampled re-derives each sampled miss response by brute force
// over the corpus columns; every sample is one counted check.
func (m *mixer) checkSampled(store *corpus.Store, sampled []sampledMiss) {
	for _, s := range sampled {
		m.res.op(checkQueryPage(store, s.req, s.body))
	}
}

// checkQueryPage verifies one first-page /query response without the
// ranking: every result satisfies the filter, ranks ascend, the page
// holds min(k, matches) results, and a cursor is present exactly when
// more matches remain.
func checkQueryPage(store *corpus.Store, req queryReq, body []byte) error {
	var page queryResponse
	if err := json.Unmarshal(body, &page); err != nil {
		return fmt.Errorf("%s: %w", req.path(), err)
	}
	f, err := req.filter(store)
	if err != nil {
		return err
	}
	matches := func(id corpus.ArticleID) bool {
		if y := store.Year(id); y < f.From || y > f.To {
			return false
		}
		if f.Venue >= 0 && store.VenueOf(id) != f.Venue {
			return false
		}
		if f.Author >= 0 {
			for _, a := range store.Authors(id) {
				if a == f.Author {
					return true
				}
			}
			return false
		}
		return true
	}
	total := 0
	for id := 0; id < store.NumArticles(); id++ {
		if matches(corpus.ArticleID(id)) {
			total++
		}
	}
	if page.Count != len(page.Results) || len(page.Results) != min(req.K, total) {
		return fmt.Errorf("%s: %d results (count %d), want min(%d, %d matches)",
			req.path(), len(page.Results), page.Count, req.K, total)
	}
	prev := 0
	for _, a := range page.Results {
		id, ok := store.ArticleByKey(a.Key)
		if !ok || !matches(id) {
			return fmt.Errorf("%s: result %s does not satisfy the filter", req.path(), a.Key)
		}
		if a.Rank <= prev {
			return fmt.Errorf("%s: rank %d after rank %d", req.path(), a.Rank, prev)
		}
		prev = a.Rank
	}
	if more := total > len(page.Results); more != (page.NextCursor != "") {
		return fmt.Errorf("%s: %d of %d matches returned, cursor present=%v",
			req.path(), len(page.Results), total, page.NextCursor != "")
	}
	return nil
}

// warmRoutes sends one request to each read route the workload will
// use, so that no timed request is the first of its kind. /related is
// warmed only where it is measured: its first request costs a full
// walk, and would cost a lazy index build if one is ever introduced,
// which then shows in that workload's setup_s.
func warmRoutes(s *server, res *result, store *corpus.Store, related bool) error {
	paths := []string{"/top?k=10", "/article?key=" + store.Key(0), "/query?k=10",
		"/authors?k=10", "/venues?k=10", "/stats"}
	if related {
		paths = append(paths, relatedPath(store, 0))
	}
	for _, path := range paths {
		r, err := s.c.get(s.base + path)
		if err == nil && r.status != 200 {
			err = fmt.Errorf("warm-up %s: status %d", path, r.status)
		}
		if !res.op(err) {
			return err
		}
	}
	return nil
}

// serveAndWarm boots the run's server, warms every route and the hot
// set, and returns the mixer ready for its first timed request.
func (r *run) serveAndWarm(extra ...string) (*server, *mixer, error) {
	s, _, err := r.bootServer(extra...)
	if err != nil {
		return nil, nil, err
	}
	if err := warmRoutes(s, r.res, r.store, false); err != nil {
		s.stop()
		return nil, nil, err
	}
	m, err := newMixer(s, r.res, r.store, r.cfg.seed)
	if err != nil {
		s.stop()
		return nil, nil, err
	}
	return s, m, nil
}

// readMix measures the read tier with the solver idle: the miss class
// walks the index, builds views and marshals JSON on every request,
// the hit class is answered from the response cache (or, for /article
// and /top, from the generation directly).
func readMix(r *run) error {
	s, m, err := r.serveAndWarm()
	if err != nil {
		return err
	}
	defer s.stop()
	before, err := s.stats()
	if err != nil {
		return err
	}
	r.setupDone()

	seg := m.loop(r.budget/2, false)
	m.checkSampled(r.store, seg.sampled)
	after, err := s.stats()
	if err != nil {
		return err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}

	nm, nh := len(seg.miss.latency), len(seg.hit.latency)
	if highestPercentile(nm) < 90 || nh == 0 {
		return fmt.Errorf("%d miss and %d hit samples do not support a p90 and a p50: %w", nm, nh, errNoSamples)
	}
	missP50, hitP50 := seg.miss.p(50), seg.hit.p(50)
	r.res.add("read_miss_p50_ms", "ms", missP50, nm)
	r.res.add("read_miss_p90_ms", "ms", seg.miss.p(90), nm)
	r.res.add("read_hit_p50_ms", "ms", hitP50, nh)
	r.res.add("read.capacity_rps", "1/s", float64(nm+nh)/seg.elapsed.Seconds(), nm+nh)
	r.res.add("serve.shed_total", "count", float64(after.Shed-before.Shed), 0)
	r.res.gate(mPrimary, "read_miss_p50_ms: client latency, miss class", "ms", missP50, nm)
	r.res.gate(mSecondary, "read_hit_p50_ms: client latency, hit class", "ms", hitP50, nh)
	r.res.gate(mPeakRSS, "sarserve VmHWM after the read phase", "MB", rss, 1)
	return nil
}

// readMixTraced splits the client latencies of the same mix by layer
// from what the server already emits (Server-Timing, /stats), times
// the index in-process on the same filters, and prices the server's
// own telemetry against a server started with it off.
func readMixTraced(r *run) error {
	s, m, err := r.serveAndWarm()
	if err != nil {
		return err
	}
	defer s.stop()
	quiet, qm, err := r.serveAndWarm("-request-log=false", "-trace-threshold", "1h")
	if err != nil {
		return err
	}
	defer quiet.stop()
	before, err := s.stats()
	if err != nil {
		return err
	}
	r.setupDone()

	// Untraced and traced stretches of the same loop, then default
	// against quiet server, interleaved so host drift hits both sides.
	slice := r.budget / 20
	var plain, traced, loud, hush mixSegment
	for i := 0; i < 3; i++ {
		plain.merge(m.loop(slice, false))
		traced.merge(m.loop(slice, true))
	}
	after, err := s.stats()
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		loud.merge(m.loop(slice, false))
		hush.merge(qm.loop(slice, false))
	}
	m.checkSampled(r.store, traced.sampled)
	if len(traced.miss.latency) == 0 || len(traced.hit.latency) == 0 || len(hush.miss.latency) == 0 {
		return errNoSamples
	}

	nm, nh := len(traced.miss.latency), len(traced.hit.latency)
	for _, c := range []struct {
		class string
		s     *classSamples
		n     int
	}{{"miss", &traced.miss, nm}, {"hit", &traced.hit, nh}} {
		total := c.s.timingP50("total")
		r.res.add("serve.total_"+c.class+"_ms", "ms", total, c.n)
		r.res.add("serve.queue_"+c.class+"_ms", "ms", c.s.timingP50("queue"), c.n)
		r.res.add("query.cache_"+c.class+"_ms", "ms", c.s.timingP50("cache"), len(c.s.timing["cache"]))
		r.res.add("query.index_"+c.class+"_ms", "ms", c.s.timingP50("index"), len(c.s.timing["index"]))
		r.res.add("corpus.view_"+c.class+"_ms", "ms", c.s.timingP50("corpus"), len(c.s.timing["corpus"]))
		r.res.add("harness.gap_"+c.class+"_ms", "ms", c.s.p(50)-total, c.n)
	}
	r.res.add("read.miss_p50_ms", "ms", traced.miss.p(50), nm)
	r.res.add("read.miss_p90_ms", "ms", traced.miss.p(90), nm)
	r.res.add("read.hit_p50_ms", "ms", traced.hit.p(50), nh)
	r.res.add("query.cache_hit_ratio_miss", "ratio", float64(traced.miss.cached)/float64(max(1, traced.miss.queries)), traced.miss.queries)
	r.res.add("query.cache_hit_ratio_hot", "ratio", float64(traced.hit.cached)/float64(max(1, traced.hit.queries)), traced.hit.queries)
	r.res.add("serve.shed_total", "count", float64(after.Shed-before.Shed), 0)
	r.res.add("read.capacity_rps", "1/s",
		float64(len(plain.miss.latency)+len(plain.hit.latency))/plain.elapsed.Seconds(), len(plain.miss.latency)+len(plain.hit.latency))
	r.res.add("harness.trace_overhead_pct", "%", 100*(traced.miss.p(50)-plain.miss.p(50))/plain.miss.p(50), nm)
	r.res.add("obs.telemetry_overhead_pct", "%", 100*(loud.miss.p(50)-hush.miss.p(50))/hush.miss.p(50), len(hush.miss.latency))

	// The cache counters the server keeps must agree with what the
	// headers showed: the hit class is served from the cache, the miss
	// class is not.
	var err2 error
	if hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses; hits == 0 || misses == 0 {
		err2 = fmt.Errorf("/stats saw %d cache hits and %d misses over the mix: a class is not doing its job", hits, misses)
	}
	r.res.op(err2)
	return r.searchInProcess(traced.sampled)
}

func (a *mixSegment) merge(b *mixSegment) {
	a.miss.merge(&b.miss)
	a.hit.merge(&b.hit)
	a.sampled = append(a.sampled, b.sampled...)
	a.elapsed += b.elapsed
}

func (c *classSamples) merge(o *classSamples) {
	c.latency = append(c.latency, o.latency...)
	for name, v := range o.timing {
		if c.timing == nil {
			c.timing = map[string][]float64{}
		}
		c.timing[name] = append(c.timing[name], v...)
	}
	c.queries += o.queries
	c.cached += o.cached
}

// searchInProcess ranks the corpus here and times query.Index.Search
// on the filters of the sampled miss requests: the index's own share
// of a miss, free of views, JSON and HTTP.
func (r *run) searchInProcess(sampled []sampledMiss) error {
	root := r.rec.start("read-mix.inprocess", 0, false)
	defer r.rec.end(root)
	store, err := corpus.OpenMapped(r.corpus)
	if err != nil {
		return err
	}
	defer store.Close()
	net := hetnet.Build(store)
	scores, _, err := r.solve("core.solve", root.ID, net, r.solverOptions())
	if err != nil {
		return err
	}
	order, pos := rankOrder(scores)
	var idx *query.Index
	r.rec.timed("query.index_build", root.ID, func() { idx = query.New(store, order, pos) })

	var us []float64
	search := r.rec.start("query.search", root.ID, false)
	for _, s := range sampled {
		f, err := s.req.filter(store)
		if err != nil {
			return err
		}
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			idx.Search(f)
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	r.rec.end(search)
	r.res.add("query.search_us", "us", median(us), len(us))
	return nil
}
