package main

import (
	"fmt"
	"math"
	"time"
)

// pairBounds is the regression bound of every pairing of workload and
// gated metric, derived from the quiet-hour A/A tables in README.md by
// the rule printed under them. BENCHMARK.json can hold one bound per
// metric name, which the gate also applies to the spread of its own
// runs at whatever hour it makes them, so the file holds the cap for
// the three timings; a claim or a regression check on one workload
// uses the pair's own bound from here, and -aa checks the code against
// these.
var pairBounds = map[string]map[string]float64{
	"rank-cold":         {mSetup: 0.25, mPrimary: 0.10, mSecondary: 0.10, mPeakRSS: 0.10},
	"read-mix":          {mSetup: 0.10, mPrimary: 0.15, mSecondary: 0.15, mPeakRSS: 0.10},
	"related-walk":      {mSetup: 0.15, mPrimary: 0.10, mSecondary: 0.20, mPeakRSS: 0.10},
	"ingest-under-read": {mSetup: 0.15, mPrimary: 0.25, mSecondary: 0.15, mPeakRSS: 0.15},
}

// aaUngated are printed by a workload but not gated; the A/A table
// lists them so that the evidence for leaving them out stays current.
var aaUngated = map[string][]string{"read-mix": {"read_miss_p90_ms"}}

// aaRunsPerSet is how many runs make one set; a set's value of a
// metric is the median of its runs, as the gate's is of its ten.
const aaRunsPerSet = 3

// derivedBound applies the rule the bounds are set by: twice the
// largest difference between two set medians, and no less than the
// spread of single runs (the gate rejects a benchmark whose spread
// exceeds its bound) nor than 10 %, rounded up to the next 5 %. A
// result above 25 % means the pair is not resolved at this run length
// on this host in this hour.
func derivedBound(maxDiff, spread float64) float64 {
	b := math.Max(0.10, math.Max(2*maxDiff, spread))
	return math.Ceil(b*20-1e-9) / 20
}

// runAA measures how far the gated metrics move when nothing changed.
// It runs sets sets of aaRunsPerSet untraced runs of every workload,
// every run on its own seed, and prints for every pairing of workload
// and gated metric: the set medians, the median and quartiles of the
// single runs, their interquartile spread as a share of the median
// (what the gate compares with the bound), the largest relative
// difference between two set medians, the pair's bound and the bound
// the rule derives from this table. It exits non-zero when a spread or
// a difference exceeds the pair's bound.
func runAA(e *env, sp *spec, cfg config, sets int) int {
	if sets < 2 {
		fmt.Println("bench: -aa needs at least 2 sets")
		return 2
	}
	cfg.trace = false
	runs := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < sets*aaRunsPerSet; i++ {
		for _, w := range workloads {
			c := cfg
			c.seed = cfg.seed + int64(i)
			c.started = time.Now()
			res, err := execute(e, w, c)
			if res != nil {
				printResult(res)
			}
			if err != nil || res.failed > 0 {
				fmt.Printf("bench: run %d of %s failed: %v\n", i+1, w.name, err)
				return 1
			}
			if runs[w.name] == nil {
				runs[w.name] = map[string][]float64{}
			}
			for _, m := range res.metrics {
				runs[w.name][m.name] = append(runs[w.name][m.name], m.value)
			}
		}
	}

	fmt.Printf("\n== A/A: %d sets of %d runs, seeds %d..%d ==\n",
		sets, aaRunsPerSet, cfg.seed, cfg.seed+int64(sets*aaRunsPerSet)-1)
	fmt.Printf("%-18s %-17s %10s %10s %10s %7s %7s %6s %7s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "maxdiff", "bound", "derived", "set medians")
	code := 0
	for _, w := range workloads {
		var names []string
		for _, m := range sp.EndToEnd {
			names = append(names, m.Name)
		}
		for _, name := range append(names, aaUngated[w.name]...) {
			v := runs[w.name][name]
			var setMedians []float64
			for s := 0; s < sets; s++ {
				setMedians = append(setMedians, median(v[s*aaRunsPerSet:(s+1)*aaRunsPerSet]))
			}
			q1, q3 := quartiles(v)
			med := median(v)
			spread := (q3 - q1) / med
			sorted := sortedCopy(setMedians)
			maxDiff := (sorted[len(sorted)-1] - sorted[0]) / sorted[0]
			bound, gated := pairBounds[w.name][name]
			boundText, flag := "   -", ""
			if gated {
				boundText = fmt.Sprintf("%3.0f%%", 100*bound)
				if spread > bound || maxDiff > bound {
					flag = "  EXCEEDS BOUND"
					code = 1
				}
			}
			fmt.Printf("%-18s %-17s %10.5g %10.5g %10.5g %6.1f%% %6.1f%% %6s %6.0f%%  %s%s\n",
				w.name, name, med, q1, q3, 100*spread, 100*maxDiff, boundText,
				100*derivedBound(maxDiff, spread), formatValues(setMedians), flag)
		}
	}
	return code
}

func formatValues(v []float64) string {
	out := ""
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.5g", x)
	}
	return out
}
