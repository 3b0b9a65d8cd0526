// Package rank holds the ranking building blocks that sit outside the
// scorer registry: top-k selection over any score vector, author and
// venue rankings aggregated from article scores, related-article
// search, and the two article-level inputs the core scorers share —
// the recency vector and the group-normalised citation count. The
// query-independent baselines themselves (citation counts, PageRank,
// HITS, CiteRank, FutureRank, P-Rank, …) are registered scorers in
// internal/core.
package rank

import (
	"container/heap"
	"errors"

	"scholarrank/internal/eval"
)

// ErrBadParam reports out-of-range algorithm parameters.
var ErrBadParam = errors.New("rank: invalid parameter")

// DefaultDamping is the conventional PageRank damping factor.
const DefaultDamping = 0.85

// topKRadixShare is the share of n from which TopK stops selecting
// with a heap and slices the full radix order instead: k ≥ n/16.
// Measured on 300k uniform scores, the radix order costs 17–20 ms at
// any k while the heap costs 10 ms at n/32, 21 ms at n/16, 35 ms at
// n/8 and 126 ms at n.
const topKRadixShare = 16

// TopK returns the indices of the k highest-scoring items in
// descending score order. Ties break toward the lower index for
// determinism. k larger than len(scores) is clamped.
//
// A k that is a large share of n (a full ranking) takes eval.Order's
// linear-time radix order; a top-10-sized k keeps the O(n log k) heap.
// On NaN-free scores both give the same order. With NaNs the radix
// path puts them last, while the heap's order depends on where they
// sit.
func TopK(scores []float64, k int) []int {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return nil
	}
	if k >= len(scores)/topKRadixShare {
		return eval.Order(scores)[:k]
	}
	return heapTopK(scores, k)
}

// heapTopK selects the top k, 0 < k ≤ len(scores), with a k-element
// min-heap.
func heapTopK(scores []float64, k int) []int {
	h := &minHeap{}
	heap.Init(h)
	for i, s := range scores {
		if h.Len() < k {
			heap.Push(h, scored{i, s})
			continue
		}
		top := (*h)[0]
		if s > top.score || (s == top.score && i < top.idx) {
			(*h)[0] = scored{i, s}
			heap.Fix(h, 0)
		}
	}
	out := make([]int, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(scored).idx
	}
	return out
}

type scored struct {
	idx   int
	score float64
}

// minHeap keeps the current k best items with the worst at the root.
// Ordering treats a higher index as "worse" on ties so that the final
// extraction yields deterministic ascending-index tie-breaks.
type minHeap []scored

func (h minHeap) Len() int { return len(h) }
func (h minHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].idx > h[j].idx
}
func (h minHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)   { *h = append(*h, x.(scored)) }
func (h *minHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
