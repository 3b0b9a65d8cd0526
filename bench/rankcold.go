package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"time"

	"scholarrank/internal/corpus"
	"scholarrank/internal/live"
	"scholarrank/internal/rank"
)

// minSamples is the fewest samples a gated timing of a multi-second
// operation is the median of. Where a phase's share of the budget
// holds fewer, the phase runs over its share.
const minSamples = 4

// repeatFor runs op until its share of the measurement budget is
// used, and at least minOps times. It stops when the next operation
// would overshoot the share by more than half its usual length, so a
// share is met to the nearest operation rather than always exceeded.
func repeatFor(share time.Duration, minOps int, op func() (time.Duration, error)) ([]time.Duration, error) {
	var took []time.Duration
	start := time.Now()
	for {
		d, err := op()
		if err != nil {
			return took, err
		}
		took = append(took, d)
		typical := time.Duration(median(in(time.Millisecond, took)) * float64(time.Millisecond))
		if len(took) >= minOps && time.Since(start)+typical/2 > share {
			return took, nil
		}
	}
}

// rankCold measures the offline and boot pipeline: sarank children
// that load the corpus, solve cold and write a snapshot, then
// sarserve children timed from exec to their first verified /top.
func rankCold(r *run) error {
	snapPath := filepath.Join(r.env.work, "ranking.snap")
	r.setupDone()

	ranks, err := repeatFor(r.budget*2/5, minSamples, func() (time.Duration, error) {
		c, err := r.env.spawn("sarank", "-in", r.corpus, "-k", "1",
			"-workers", strconv.Itoa(r.env.workers), "-save-scores", snapPath)
		if err != nil {
			return 0, err
		}
		defer c.stop()
		d, err := c.runToExit()
		r.res.op(err)
		return d, err
	})
	if err != nil {
		return err
	}

	snap, err := live.ReadSnapshotFile(snapPath)
	if !r.res.op(err) {
		return fmt.Errorf("read back snapshot: %w", err)
	}
	r.res.op(checkSnapshot(snap, r.store, r.print))
	order := rank.TopK(snap.Importance, 10)

	var peaks []float64
	boots, err := repeatFor(r.budget*3/5, minSamples, func() (time.Duration, error) {
		s, err := r.env.startServer(r.corpus)
		if err != nil {
			return 0, err
		}
		defer s.stop()
		d, err := s.awaitFirstRanked(func(body []byte) error {
			return checkTopAgainstSnapshot(body, r.store, snap, order)
		})
		if !r.res.op(err) {
			return d, err
		}
		rss, err := s.peakRSSMB()
		if err != nil {
			return d, err
		}
		peaks = append(peaks, rss)
		if len(peaks) == 1 {
			st, err := s.stats()
			if err == nil && st.Fingerprint != fmt.Sprintf("%016x", snap.Fingerprint) {
				err = fmt.Errorf("/stats fingerprint %s, snapshot %016x", st.Fingerprint, snap.Fingerprint)
			}
			r.res.op(err)
		}
		return d, nil
	})
	if err != nil {
		return err
	}

	r.res.addMedian("rank_s", "s", in(time.Second, ranks))
	r.res.addMedian("first_ranked_byte_s", "s", in(time.Second, boots))
	r.res.addMedian("boot_peak_rss_mb", "MB", peaks)
	r.res.gate(mPrimary, "rank_s: sarank child, exec to exit", "ms", median(in(time.Millisecond, ranks)), len(ranks))
	r.res.gate(mSecondary, "first_ranked_byte_s: sarserve exec to first verified /top", "ms", median(in(time.Millisecond, boots)), len(boots))
	r.res.gate(mPeakRSS, "boot_peak_rss_mb: sarserve VmHWM at first ranked byte", "MB", median(peaks), len(peaks))
	return nil
}

// checkSnapshot verifies the ranking sarank wrote: bound to this
// corpus, finite, a total order, and converged in both phases.
func checkSnapshot(snap *live.Snapshot, store *corpus.Store, fingerprint uint64) error {
	if snap.Fingerprint != fingerprint {
		return fmt.Errorf("snapshot fingerprint %016x, corpus %016x", snap.Fingerprint, fingerprint)
	}
	n := store.NumArticles()
	if len(snap.Importance) != n {
		return fmt.Errorf("snapshot has %d scores for %d articles", len(snap.Importance), n)
	}
	for i, v := range snap.Importance {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("importance[%d] = %v", i, v)
		}
	}
	seen := make([]bool, n)
	for _, i := range rank.TopK(snap.Importance, n) {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("rank order is not a permutation at article %d", i)
		}
		seen[i] = true
	}
	if !snap.PrestigeStats.Converged || !snap.HeteroStats.Converged {
		return fmt.Errorf("solve did not converge: prestige %v, hetero %v",
			snap.PrestigeStats.Converged, snap.HeteroStats.Converged)
	}
	return nil
}

// checkTopAgainstSnapshot verifies a /top?k=10 body against the
// snapshot's own top ten: same keys in the same order, importance
// equal to 1e-9.
func checkTopAgainstSnapshot(body []byte, store *corpus.Store, snap *live.Snapshot, order []int) error {
	var top []articleView
	if err := json.Unmarshal(body, &top); err != nil {
		return err
	}
	if len(top) != len(order) {
		return fmt.Errorf("/top returned %d articles, want %d", len(top), len(order))
	}
	for pos, i := range order {
		got := top[pos]
		if want := store.Key(corpus.ArticleID(i)); got.Key != want {
			return fmt.Errorf("/top rank %d is %s, snapshot says %s", pos+1, got.Key, want)
		}
		if math.Abs(got.Importance-snap.Importance[i]) > 1e-9 {
			return fmt.Errorf("/top rank %d importance %v, snapshot %v", pos+1, got.Importance, snap.Importance[i])
		}
	}
	return nil
}

// checkTopShape is the first-ranked-byte check of the serving
// workloads, which have no snapshot to compare with: ten articles,
// ranked 1 to 10.
func checkTopShape(body []byte) error {
	var top []articleView
	if err := json.Unmarshal(body, &top); err != nil {
		return err
	}
	if len(top) != 10 {
		return fmt.Errorf("/top returned %d articles, want 10", len(top))
	}
	for pos, a := range top {
		if a.Rank != pos+1 {
			return fmt.Errorf("/top position %d has rank %d", pos+1, a.Rank)
		}
	}
	return nil
}

// bootServer starts a server on the run's corpus and waits for its
// first ranked byte.
func (r *run) bootServer(extra ...string) (*server, time.Duration, error) {
	s, err := r.env.startServer(r.corpus, extra...)
	if err != nil {
		return nil, 0, err
	}
	d, err := s.awaitFirstRanked(checkTopShape)
	if !r.res.op(err) {
		s.stop()
		return nil, d, err
	}
	return s, d, nil
}
