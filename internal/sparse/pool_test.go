package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunCoversAllTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, total := range []int{0, 1, 2, 7, 100} {
			var hits = make([]int32, total)
			p.Run(total, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d total=%d: task %d ran %d times", workers, total, i, h)
				}
			}
		}
	}
}

func TestPoolNilRunsSerially(t *testing.T) {
	var nilPool *Pool
	if w := nilPool.Workers(); w != 1 {
		t.Errorf("nil pool Workers = %d, want 1", w)
	}
	order := []int{}
	nilPool.Run(3, func(i int) { order = append(order, i) }) // must not panic, runs inline
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Errorf("nil pool Run order = %v", order)
	}
}

func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				p.Run(17, func(int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if want := int64(8 * 50 * 17); total.Load() != want {
		t.Errorf("ran %d tasks, want %d", total.Load(), want)
	}
}

// TestPoolHandlesShareHelpers runs concurrent Runs through many
// handles of different caps and checks that every task runs exactly
// once, that each handle's Stats count only its own work, and that
// the handles share one helper set: the goroutine count never exceeds
// the baseline plus the largest cap less one, however many handles
// exist.
func TestPoolHandlesShareHelpers(t *testing.T) {
	const (
		copies = 4  // handles per cap
		reps   = 20 // Runs per handle
		total  = 23 // tasks per Run
	)
	caps := []int{1, 2, runtime.NumCPU() + 1}
	var handles []*Pool
	maxCap := 0
	for _, c := range caps {
		for i := 0; i < copies; i++ {
			p := NewPool(c)
			handles = append(handles, p)
			maxCap = max(maxCap, p.Workers())
		}
	}
	base := runtime.NumGoroutine()
	// Each task records the goroutine count while every handle is in
	// flight; the test's own Run callers are counted on top of the
	// baseline.
	var peak atomic.Int64
	hits := make([][]int32, len(handles))
	var wg sync.WaitGroup
	for h, p := range handles {
		hits[h] = make([]int32, reps*total)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				p.Run(total, func(i int) {
					atomic.AddInt32(&hits[h][rep*total+i], 1)
					n := int64(runtime.NumGoroutine())
					for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
					}
				})
			}
		}()
	}
	wg.Wait()
	for h, p := range handles {
		for i, n := range hits[h] {
			if n != 1 {
				t.Fatalf("handle %d (cap %d): task %d ran %d times", h, p.Workers(), i, n)
			}
		}
		st := p.Stats()
		if st.Runs != reps || st.Tasks != reps*total {
			t.Errorf("handle %d (cap %d) stats %+v, want %d runs and %d tasks", h, p.Workers(), st, reps, reps*total)
		}
	}
	if limit := int64(base + len(handles) + maxCap - 1); peak.Load() > limit {
		t.Errorf("peak %d goroutines during %d concurrent handles, limit %d (baseline %d + callers + cap %d - 1)",
			peak.Load(), len(handles), limit, base, maxCap)
	}
	// The callers have signalled Done but may still be exiting.
	limit := base + maxCap - 1
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > limit && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > limit {
		t.Errorf("%d goroutines after the runs, limit %d (baseline %d + cap %d - 1)", n, limit, base, maxCap)
	}
}
