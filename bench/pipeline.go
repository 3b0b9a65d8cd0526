package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/live"
	"scholarrank/internal/query"
	"scholarrank/internal/rank"
	"scholarrank/internal/shard"
)

// The traced passes replay, in this process and through the layers'
// public functions, the stages sarserve and sarank run internally,
// one span per stage. Nothing outside bench/ is instrumented.

// solve ranks net cold on a fresh engine with the default scorer and
// records it as span name under parent, with the two solver phases as
// child spans placed from the engine's per-iteration trace events.
func (r *run) solve(name string, parent int, net *hetnet.Network, opts core.Options) (*core.Scores, *span, error) {
	type phase struct{ start, end time.Time }
	phases := map[string]*phase{}
	opts.Trace = func(ev core.TraceEvent) {
		now := time.Now()
		p := phases[ev.Phase]
		if p == nil {
			p = &phase{start: now.Add(-ev.Elapsed)}
			phases[ev.Phase] = p
		}
		p.end = now
	}
	eng := core.NewEngine(net)
	defer eng.Close()
	var scores *core.Scores
	var err error
	sp := r.rec.timed(name, parent, func() {
		scores, err = eng.RankScorer(core.DefaultScorer, nil, opts)
	})
	if err != nil {
		return nil, sp, fmt.Errorf("%s: %w", name, err)
	}
	for _, ph := range []string{core.PhasePrestige, core.PhaseHetero} {
		if p := phases[ph]; p != nil {
			r.rec.add(name+"."+ph, sp.ID, p.start, p.end)
		}
	}
	return scores, sp, nil
}

func (r *run) solverOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Workers = r.env.workers
	return opts
}

// stageTimes collects, by per-layer metric name, the duration of a
// stage in each replay of a traced pass; the metric is their median.
type stageTimes map[string][]time.Duration

func (st stageTimes) note(metricName string, sp *span) {
	st[metricName] = append(st[metricName], sp.duration())
}

// report adds every stage as a per-layer metric in seconds.
func (st stageTimes) report(res *result) {
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.addMedian(name, "s", in(time.Second, st[name]))
	}
}

// rankOrder returns the articles by descending importance and each
// article's 1-based position in that order.
func rankOrder(scores *core.Scores) (order, pos []int) {
	order = rank.TopK(scores.Importance, len(scores.Importance))
	pos = make([]int, len(order))
	for p, i := range order {
		pos[i] = p + 1
	}
	return order, pos
}

// buildGeneration replays serve.newGeneration over scores, stage by
// stage, and returns what the stages took together and what the
// related index allocated.
func (r *run) buildGeneration(parent int, st stageTimes, store *corpus.Store, net *hetnet.Network, scores *core.Scores) (sum time.Duration, relatedAlloc uint64, err error) {
	stage := func(metricName string, fn func()) *span {
		sp := r.rec.timed(strings.TrimSuffix(metricName, "_s"), parent, fn)
		st.note(metricName, sp)
		sum += sp.duration()
		return sp
	}
	var order, pos []int
	stage("rank.order_sort_s", func() { order, pos = rankOrder(scores) })
	stage("rank.entity_rank_s", func() {
		var authors, venues []float64
		if authors, err = rank.AuthorRank(net, scores.Importance, rank.EntityRankOptions{}); err != nil {
			return
		}
		if venues, err = rank.VenueRank(net, scores.Importance, rank.EntityRankOptions{}); err != nil {
			return
		}
		rank.TopK(authors, len(authors))
		rank.TopK(venues, len(venues))
	})
	if err != nil {
		return 0, 0, fmt.Errorf("entity ranking: %w", err)
	}
	var related *rank.RelatedIndex
	build := stage("rank.related_build_s", func() { related, err = rank.NewRelatedIndex(net, rank.RelatedOptions{}) })
	if err != nil {
		return 0, 0, fmt.Errorf("related index: %w", err)
	}
	defer related.Close()
	stage("query.index_build_s", func() { query.New(store, order, pos) })
	stage("live.fingerprint_s", func() { live.Fingerprint(store) })
	stage("core.explainer_build_s", func() { core.NewExplainer(scores) })
	return sum, build.AllocBytes, nil
}

// addStage reports a span's duration as a per-layer metric in seconds.
func (r *run) addStage(metricName string, sp *span) {
	r.res.add(metricName, "s", secs(sp.duration()), 1)
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func fileSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// releaseMemory drops the calibration arrays and returns every freed
// page to the operating system, so that a child does not compete with
// this process for memory and a replay's allocations fault their pages
// in as a freshly started child's do, not as those of a process with
// a gigabyte already in hand.
func (r *run) releaseMemory() {
	r.env.probe = hostProbe{}
	debug.FreeOSMemory()
}

// bootReplay is what one in-process replay of a boot leaves behind for
// the derived metrics and the solver matrix.
type bootReplay struct {
	store  *corpus.Store
	net    *hetnet.Network
	scores *core.Scores
	solve  *span
	sum    time.Duration // the stages a booting sarserve runs
}

// replayBoot runs, in this process, every stage between a corpus file
// and the first ranked byte, plus the verify and snapshot write that
// only sarank and the operator run.
func (r *run) replayBoot(st stageTimes) (*bootReplay, uint64, error) {
	root := r.rec.start("pipeline", 0, false)
	defer r.rec.end(root)
	b := &bootReplay{}
	var err error
	open := r.rec.timed("corpus.open", root.ID, func() { b.store, err = corpus.OpenMapped(r.corpus) })
	if err != nil {
		return nil, 0, fmt.Errorf("open corpus: %w", err)
	}
	st.note("corpus.open_s", open)
	st.note("corpus.verify_s", r.rec.timed("corpus.verify", root.ID, func() { err = b.store.Verify() }))
	if !r.res.op(err) {
		b.store.Close()
		return nil, 0, fmt.Errorf("verify corpus: %w", err)
	}
	build := r.rec.timed("hetnet.build", root.ID, func() { b.net = hetnet.Build(b.store) })
	st.note("hetnet.build_s", build)
	if b.scores, b.solve, err = r.solve("core.solve", root.ID, b.net, r.solverOptions()); err != nil {
		b.store.Close()
		return nil, 0, err
	}
	st.note("core.solve_s", b.solve)
	st["core.prestige_s"] = append(st["core.prestige_s"], b.scores.PrestigeStats.Elapsed)
	st["core.hetero_s"] = append(st["core.hetero_s"], b.scores.HeteroStats.Elapsed)
	generationSum, relatedAlloc, err := r.buildGeneration(root.ID, st, b.store, b.net, b.scores)
	if err != nil {
		b.store.Close()
		return nil, 0, err
	}
	snapPath := filepath.Join(r.env.work, "traced.snap")
	st.note("live.snapshot_write_s", r.rec.timed("live.snapshot_write", root.ID, func() {
		err = live.WriteSnapshotFile(snapPath, live.Capture(b.store, b.scores, 1, time.Now().Unix()))
	}))
	if err != nil {
		b.store.Close()
		return nil, 0, fmt.Errorf("write snapshot: %w", err)
	}
	b.sum = open.duration() + build.duration() + b.solve.duration() + generationSum
	return b, relatedAlloc, nil
}

// rankColdTraced boots a real server and replays the boot in this
// process, one span per stage, wholeSamples times in turn, to show the
// stages sum to that whole, then runs the solver configuration matrix.
// Child and replay alternate so that a change in the host during the
// pass falls on both sides of the ratio.
func rankColdTraced(r *run) error {
	r.setupDone()
	// Nothing below reads the generated corpus from memory, and a live
	// heap of that size would spare the replays most of the collections
	// a child pays for while its heap grows from nothing.
	r.store = nil
	st := stageTimes{}
	var boots, sums []time.Duration
	var last *bootReplay
	var relatedAlloc uint64
	for i := 0; i < wholeSamples; i++ {
		if last != nil {
			last.store.Close()
			last = nil
		}
		r.releaseMemory()
		s, boot, err := r.bootServer()
		if err != nil {
			return err
		}
		s.stop()
		boots = append(boots, boot)
		if last, relatedAlloc, err = r.replayBoot(st); err != nil {
			return err
		}
		sums = append(sums, last.sum)
	}
	defer last.store.Close()
	scores := last.scores
	snapBytes, err := fileSize(filepath.Join(r.env.work, "traced.snap"))
	if err != nil {
		return err
	}

	st.report(r.res)
	r.res.add("core.prestige_iters", "count", float64(scores.PrestigeStats.Iterations), 1)
	r.res.add("core.hetero_iters", "count", float64(scores.HeteroStats.Iterations), 1)
	r.res.add("core.solve_alloc_mb", "MB", mb(last.solve.AllocBytes), 1)
	r.res.add("core.solve_allocs", "count", float64(last.solve.Allocs), 1)
	r.res.add("rank.related_build_alloc_mb", "MB", mb(relatedAlloc), 1)
	r.res.add("live.snapshot_bytes", "B", float64(snapBytes), 1)

	// How far the prestige sweep is from the hardware: bytes are
	// computed from the operator's CSR and vector sizes (per in-edge a
	// 4-byte source id, an 8-byte weight and an 8-byte gathered score;
	// per row an 8-byte offset, teleport read and result write), not
	// measured by a counter.
	edges, rows := float64(last.store.NumCitations()), float64(last.store.NumArticles())
	sweeps := float64(scores.PrestigeStats.Iterations)
	sweepSeconds := median(in(time.Second, st["core.prestige_s"])) / sweeps
	r.res.add("sparse.sweep_ns_per_edge", "ns", sweepSeconds*1e9/edges, int(sweeps))
	r.res.add("sparse.eff_gbps", "GB/s", (20*edges+24*rows)/sweepSeconds/1e9, int(sweeps))

	// The in-process stages of a boot must sum to what the child takes;
	// the rest is process start and HTTP.
	r.res.addMedian("rank-cold.whole_s", "s", in(time.Second, boots))
	r.checkStageSum("rank-cold.stage_sum_ratio", sums, boots)
	if err := r.solverMatrix(last.net, scores); err != nil {
		return err
	}
	r.addTraceOverhead(secs(time.Since(r.timedStart)))
	return nil
}

// wholeSamples is how many times a traced pass replays a child
// operation's stages here (and how many children rank-cold boots
// between the replays): one timing of either side is off by more than
// the band below allows too often on a shared host.
const wholeSamples = 3

// checkStageSum reports the replayed stages' sum as a share of the
// whole child operation and counts, as one operation, that the share
// lies in 0.85–1.15: outside it the replay no longer follows what the
// child does — a stage was added, moved or dropped on the server side —
// and the per-layer numbers of this pass are not to be trusted. The
// share is taken twice, median over median and fastest over fastest,
// and the one nearer 1 is reported: a slow patch of the host spoils the
// medians of three, one lucky replay spoils the minimum, and a stage
// the replay lacks moves both.
func (r *run) checkStageSum(name string, sums, whole []time.Duration) {
	r.res.addMedian(strings.TrimSuffix(name, "_ratio")+"_s", "s", in(time.Second, sums))
	ratio := median(in(time.Second, sums)) / median(in(time.Second, whole))
	if fastest := secs(slices.Min(sums)) / secs(slices.Min(whole)); math.Abs(fastest-1) < math.Abs(ratio-1) {
		ratio = fastest
	}
	r.res.add(name, "ratio", ratio, len(whole))
	var err error
	if ratio < 0.85 || ratio > 1.15 {
		err = fmt.Errorf("%s = %.3f, outside 0.85–1.15: the traced stages (%s s) do not add up to the child's whole (%s s)",
			name, ratio, formatValues(in(time.Second, sums)), formatValues(in(time.Second, whole)))
	}
	r.res.op(err)
}

// solverMatrix runs the same cold solve under the configurations the
// best flat one (reordered, Aitken, one worker short of the CPUs) is
// compared with: all CPUs, four shards, Aitken off.
func (r *run) solverMatrix(net *hetnet.Network, flat *core.Scores) error {
	root := r.rec.start("matrix", 0, false)
	defer r.rec.end(root)

	// The flat solve already ran on one worker when the host has two
	// CPUs (workers = nproc-1).
	opts := r.solverOptions()
	one := flat
	if opts.Workers != 1 {
		opts.Workers = 1
		var err error
		if one, _, err = r.solve("core.solve_workers1", root.ID, net, opts); err != nil {
			return err
		}
	}
	opts.Workers = runtime.NumCPU()
	all, _, err := r.solve("core.solve_workersN", root.ID, net, opts)
	if err != nil {
		return err
	}
	r.res.add("sparse.par_speedup", "ratio",
		one.PrestigeStats.Elapsed.Seconds()/all.PrestigeStats.Elapsed.Seconds(), 1)

	var planErr error
	plan := r.rec.timed("shard.plan", root.ID, func() {
		_, planErr = shard.Partition(net.SolverView().Citations, 4)
	})
	if planErr != nil {
		return fmt.Errorf("shard plan: %w", planErr)
	}
	r.addStage("shard.plan_s", plan)

	opts = r.solverOptions()
	opts.Shards = 4
	sharded, shardedSpan, err := r.solve("core.solve_shards4", root.ID, net, opts)
	if err != nil {
		return err
	}
	r.addStage("core.solve_shards4_s", shardedSpan)
	r.res.add("core.solve_shards4_iters", "count",
		float64(sharded.PrestigeStats.Iterations+sharded.HeteroStats.Iterations), 1)

	opts = r.solverOptions()
	opts.AitkenEvery = -1
	_, plainSpan, err := r.solve("core.solve_noaitken", root.ID, net, opts)
	if err != nil {
		return err
	}
	r.addStage("core.solve_noaitken_s", plainSpan)

	// Sharding and extrapolation change the path, never the fixed
	// point: the top of the ranking must not move.
	var moved error
	top := rank.TopK(flat.Importance, 10)
	for i, a := range rank.TopK(sharded.Importance, 10) {
		if a != top[i] && moved == nil {
			moved = fmt.Errorf("4-shard solve ranks article %d at %d, flat solve ranks %d", a, i+1, top[i])
		}
	}
	r.res.op(moved)
	return nil
}

// addTraceOverhead reports what recording the spans cost, as a share
// of the traced wall time: the measured cost of one span with
// allocation deltas times the spans recorded.
func (r *run) addTraceOverhead(wallSeconds float64) {
	probe := newRecorder("probe")
	const rounds = 20
	start := time.Now()
	for i := 0; i < rounds; i++ {
		probe.timed("probe", 0, func() {})
	}
	perSpan := time.Since(start).Seconds() / rounds
	r.res.add("harness.trace_overhead_pct", "%", 100*perSpan*float64(r.rec.count())/wallSeconds, r.rec.count())
}
