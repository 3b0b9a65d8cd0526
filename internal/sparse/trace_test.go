package sparse

import (
	"runtime"
	"testing"
)

// TestOnIterationHook checks that the per-iteration hook fires once
// per iteration with sequential indices and the same residuals the
// stats report, and that phase wall time is recorded.
func TestOnIterationHook(t *testing.T) {
	// A contraction toward 0.5 per coordinate: residual halves each
	// iteration, so the trace is strictly decreasing.
	step := func(dst, src []float64) float64 {
		var res float64
		for i, v := range src {
			dst[i] = 0.5 + (v-0.5)/2
			d := dst[i] - v
			if d < 0 {
				d = -d
			}
			res += d
		}
		return res
	}
	var events []IterEvent
	opts := IterOptions{Tol: 1e-6, MaxIter: 100, OnIteration: func(ev IterEvent) {
		events = append(events, ev)
	}}
	_, st, err := FixedPointResidual([]float64{0, 1, 2}, step, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	if len(events) != st.Iterations {
		t.Fatalf("hook fired %d times for %d iterations", len(events), st.Iterations)
	}
	for i, ev := range events {
		if ev.Iteration != i+1 {
			t.Errorf("event %d has iteration %d", i, ev.Iteration)
		}
		if ev.Elapsed < 0 {
			t.Errorf("event %d has negative elapsed %v", i, ev.Elapsed)
		}
		if i > 0 && ev.Residual >= events[i-1].Residual {
			t.Errorf("residual not decreasing at %d: %v >= %v", i, ev.Residual, events[i-1].Residual)
		}
	}
	if last := events[len(events)-1].Residual; last != st.Residual {
		t.Errorf("final event residual %v != stats residual %v", last, st.Residual)
	}
	if st.Elapsed <= 0 {
		t.Errorf("stats elapsed = %v, want > 0", st.Elapsed)
	}
}

// TestPoolStats checks the occupancy counters.
func TestPoolStats(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Stats(); got != (PoolStats{Workers: 1}) {
		t.Errorf("nil pool stats = %+v", got)
	}
	p := NewPool(2)
	p.Run(4, func(int) {})
	p.Run(3, func(int) {})
	st := p.Stats()
	if w := min(2, runtime.GOMAXPROCS(0)); st.Workers != w || st.Runs != 2 || st.Tasks != 7 {
		t.Errorf("pool stats = %+v, want workers=%d runs=2 tasks=7", st, w)
	}
}
