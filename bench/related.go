package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"runtime"
	"sync"
	"time"

	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
)

const relatedK = 10

// seedDrawer hands out distinct article ids, uniformly drawn among
// the articles that cite something (so every seed has neighbours to
// walk to), so every /related request of a run is cold.
type seedDrawer struct {
	rng   *rand.Rand
	store *corpus.Store
	used  map[int]bool
}

func newSeedDrawer(seed int64, store *corpus.Store) *seedDrawer {
	// Article 0 is the warm-up request's key.
	return &seedDrawer{rng: newRNG(seed, "related"), store: store, used: map[int]bool{0: true}}
}

func (d *seedDrawer) next() corpus.ArticleID {
	for {
		id := d.rng.Intn(d.store.NumArticles())
		if !d.used[id] && len(d.store.Refs(corpus.ArticleID(id))) > 0 {
			d.used[id] = true
			return corpus.ArticleID(id)
		}
	}
}

func relatedPath(store *corpus.Store, id corpus.ArticleID) string {
	return fmt.Sprintf("/related?key=%s&k=%d", url.QueryEscape(store.Key(id)), relatedK)
}

// checkRelatedBody verifies the shape of a /related answer: up to k
// distinct articles of the corpus, the seed not among them.
func checkRelatedBody(store *corpus.Store, seed corpus.ArticleID, body []byte) ([]articleView, error) {
	var out []articleView
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	if len(out) == 0 || len(out) > relatedK {
		return nil, fmt.Errorf("/related on %s returned %d articles", store.Key(seed), len(out))
	}
	seen := map[string]bool{store.Key(seed): true}
	for _, a := range out {
		if _, ok := store.ArticleByKey(a.Key); !ok || seen[a.Key] {
			return nil, fmt.Errorf("/related on %s: %s is unknown, repeated or the seed itself", store.Key(seed), a.Key)
		}
		seen[a.Key] = true
	}
	return out, nil
}

// coldRelated issues one cold /related request and checks its shape.
func (r *run) coldRelated(s *server, id corpus.ArticleID) (reply, error) {
	rep, err := s.c.get(s.base + relatedPath(r.store, id))
	if err == nil && rep.status != 200 {
		err = fmt.Errorf("/related on %s: status %d", r.store.Key(id), rep.status)
	}
	if err == nil {
		_, err = checkRelatedBody(r.store, id, rep.body)
	}
	r.res.op(err)
	return rep, err
}

// dupRound sends the same cold /related request on every CPU's
// connection at once and returns the time until all have completed.
// The bodies must be identical.
func (r *run) dupRound(s *server, id corpus.ArticleID) (time.Duration, error) {
	n := runtime.NumCPU()
	bodies := make([][]byte, n)
	errs := make([]error, n)
	target := s.base + relatedPath(r.store, id)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.http.CloseIdleConnections()
			rep, err := c.get(target)
			if err == nil && rep.status != 200 {
				err = fmt.Errorf("duplicate /related: status %d", rep.status)
			}
			bodies[i], errs[i] = append([]byte(nil), rep.body...), err
		}()
	}
	wg.Wait()
	took := time.Since(start)
	for i := 0; i < n; i++ {
		err := errs[i]
		if err == nil && !bytes.Equal(bodies[i], bodies[0]) {
			err = fmt.Errorf("duplicate /related on %s: body %d differs from body 0", r.store.Key(id), i)
		}
		if !r.res.op(err) {
			return took, err
		}
	}
	return took, nil
}

// serveRelated boots the run's server, warms every read route
// including /related, and ends the set-up.
func (r *run) serveRelated() (*server, *seedDrawer, error) {
	s, _, err := r.bootServer()
	if err != nil {
		return nil, nil, err
	}
	if err := warmRoutes(s, r.res, r.store, true); err != nil {
		s.stop()
		return nil, nil, err
	}
	r.setupDone()
	return s, newSeedDrawer(r.cfg.seed, r.store), nil
}

// relatedWalk measures the dearest read: a cold /related key is a
// personalised walk over the whole graph. First distinct cold seeds
// one at a time, then rounds of one fresh key requested by every CPU
// at once, which today runs the same walk that many times.
func relatedWalk(r *run) error {
	s, seeds, err := r.serveRelated()
	if err != nil {
		return err
	}
	defer s.stop()

	var first corpus.ArticleID = -1
	var firstBody []byte
	cold, err := repeatFor(r.budget*3/10, minSamples, func() (time.Duration, error) {
		id := seeds.next()
		rep, err := r.coldRelated(s, id)
		if err == nil && first < 0 {
			first, firstBody = id, append([]byte(nil), rep.body...)
		}
		return rep.latency, err
	})
	if err != nil {
		return err
	}
	dup, err := repeatFor(r.budget*3/10, minSamples, func() (time.Duration, error) {
		return r.dupRound(s, seeds.next())
	})
	if err != nil {
		return err
	}

	// The first key again: now cached, and byte-identical to the cold
	// answer.
	rep, err := s.c.get(s.base + relatedPath(r.store, first))
	if err == nil && !bytes.Equal(rep.body, firstBody) {
		err = fmt.Errorf("cached /related on %s differs from its cold answer", r.store.Key(first))
	}
	r.res.op(err)
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}

	coldMS, dupMS := median(in(time.Millisecond, cold)), median(in(time.Millisecond, dup))
	r.res.addMedian("related_cold_p50_ms", "ms", in(time.Millisecond, cold))
	r.res.addMedian("related_dup_p50_ms", "ms", in(time.Millisecond, dup))
	r.res.add("rank.related_dup_ratio", "ratio", dupMS/coldMS, len(dup))
	r.res.gate(mPrimary, "related_cold_p50_ms: client latency, distinct cold seeds", "ms", coldMS, len(cold))
	r.res.gate(mSecondary, fmt.Sprintf("related_dup_p50_ms: %d identical concurrent cold requests, until all complete", runtime.NumCPU()), "ms", dupMS, len(dup))
	r.res.gate(mPeakRSS, "sarserve VmHWM after the walks", "MB", rss, 1)
	return nil
}

// relatedWalkTraced runs the same cold seeds through the server and
// through rank.RelatedIndex.Related in this process: the server's
// walk span, the walk's own time and allocation without HTTP, and the
// answers compared.
func relatedWalkTraced(r *run) error {
	s, seeds, err := r.serveRelated()
	if err != nil {
		return err
	}
	defer s.stop()

	root := r.rec.start("related-walk.inprocess", 0, false)
	store, err := corpus.OpenMapped(r.corpus)
	if err != nil {
		return err
	}
	defer store.Close()
	var net *hetnet.Network
	r.rec.timed("hetnet.build", root.ID, func() { net = hetnet.Build(store) })
	var idx *rank.RelatedIndex
	build := r.rec.timed("rank.related_build", root.ID, func() { idx, err = rank.NewRelatedIndex(net, rank.RelatedOptions{}) })
	if err != nil {
		return fmt.Errorf("related index: %w", err)
	}
	defer idx.Close()
	r.addStage("rank.related_build_s", build)
	r.res.add("rank.related_build_alloc_mb", "MB", mb(build.AllocBytes), 1)

	const walks = 5
	var client, walk, direct, alloc []float64
	for i := 0; i < walks; i++ {
		id := seeds.next()
		rep, err := r.coldRelated(s, id)
		if err != nil {
			return err
		}
		client = append(client, ms(rep.latency))
		walk = append(walk, parseServerTiming(rep.header.Get("Server-Timing"))["walk"])
		served, _ := checkRelatedBody(r.store, id, rep.body)

		var ids []int
		sp := r.rec.timed("rank.related", root.ID, func() { ids, err = idx.Related(id, relatedK) })
		if err != nil {
			return fmt.Errorf("related in-process: %w", err)
		}
		direct = append(direct, ms(sp.duration()))
		alloc = append(alloc, mb(sp.AllocBytes))
		r.res.op(sameArticles(store, ids, served))
	}
	r.rec.end(root)

	dup, err := repeatFor(0, 2, func() (time.Duration, error) { return r.dupRound(s, seeds.next()) })
	if err != nil {
		return err
	}
	r.res.add("related.cold_ms", "ms", median(client), walks)
	r.res.add("rank.walk_ms", "ms", median(walk), walks)
	r.res.add("rank.related_direct_ms", "ms", median(direct), walks)
	r.res.add("rank.related_alloc_mb", "MB", median(alloc), walks)
	r.res.add("rank.related_dup_ratio", "ratio", median(in(time.Millisecond, dup))/median(client), len(dup))
	r.addTraceOverhead(secs(time.Since(r.timedStart)))
	return nil
}

// sameArticles checks the server's answer names exactly the articles
// the index returned here, in the same order.
func sameArticles(store *corpus.Store, ids []int, served []articleView) error {
	if len(ids) != len(served) {
		return fmt.Errorf("in-process walk returned %d articles, server %d", len(ids), len(served))
	}
	for i, id := range ids {
		if k := store.Key(corpus.ArticleID(id)); k != served[i].Key {
			return fmt.Errorf("related position %d: in-process %s, server %s", i+1, k, served[i].Key)
		}
	}
	return nil
}
