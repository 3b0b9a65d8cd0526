package experiments

import (
	"fmt"

	"scholarrank/internal/eval"
	"scholarrank/internal/rank"
)

func init() {
	register(Experiment{ID: "F4", Title: "Cold start: rank percentile of high-impact articles by age", Run: runColdStart})
}

// coldStartBuckets is the number of article-age buckets the figure
// reports.
const coldStartBuckets = 6

// runColdStart reproduces the recency-bias figure. Among articles
// that *will* be high-impact (global top decile by future citations),
// it reports the mean rank percentile each method assigns, bucketed
// by article age at ranking time. A recency-unbiased method keeps
// the curve high and flat; citation-count-driven methods collapse on
// the young buckets — the headline failure QISA-Rank fixes.
func runColdStart(opts Options) ([]*Table, error) {
	ctx, err := prepare(SizeMedium, opts)
	if err != nil {
		return nil, err
	}
	n := ctx.net.NumArticles()

	// High-impact set: global top 10% by future citations.
	impactful := make(map[int]bool, n/10)
	for _, i := range rank.TopK(ctx.future, n/10) {
		impactful[i] = true
	}

	// Age buckets over the visible timeline.
	maxAge := 0.0
	for i := 0; i < n; i++ {
		if a := ctx.net.Age(int32(i)); a > maxAge {
			maxAge = a
		}
	}
	bucketOf := func(i int) int {
		if maxAge == 0 {
			return 0
		}
		b := int(ctx.net.Age(int32(i)) / maxAge * coldStartBuckets)
		if b >= coldStartBuckets {
			b = coldStartBuckets - 1
		}
		return b
	}

	t := &Table{
		ID:      "F4",
		Title:   "Mean rank percentile of future-high-impact articles by age bucket",
		Columns: []string{"method"},
		Notes: []string{
			"bucket 0 = youngest articles; percentile 1.0 = ranked best",
			"high-impact set: top 10% by future citations",
		},
	}
	for b := 0; b < coldStartBuckets; b++ {
		t.Columns = append(t.Columns, fmt.Sprintf("age-b%d", b))
	}

	for _, m := range methods {
		scores, err := m.scores(ctx.net, opts.Workers)
		if err != nil {
			return nil, err
		}
		pct := eval.Percentiles(scores)
		sums := make([]float64, coldStartBuckets)
		counts := make([]int, coldStartBuckets)
		for i := range pct {
			if !impactful[i] {
				continue
			}
			b := bucketOf(i)
			sums[b] += pct[i]
			counts[b]++
		}
		row := []any{m.label}
		for b := 0; b < coldStartBuckets; b++ {
			if counts[b] == 0 {
				row = append(row, "n/a")
				continue
			}
			row = append(row, sums[b]/float64(counts[b]))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}
