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
		p.Close()
	}
}

func TestPoolNilAndClosedRunSerially(t *testing.T) {
	var nilPool *Pool
	if w := nilPool.Workers(); w != 1 {
		t.Errorf("nil pool Workers = %d, want 1", w)
	}
	order := []int{}
	nilPool.Run(3, func(i int) { order = append(order, i) }) // must not panic, runs inline
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Errorf("nil pool Run order = %v", order)
	}
	nilPool.Close() // no-op

	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	var n int32
	p.Run(5, func(int) { atomic.AddInt32(&n, 1) }) // serial fallback after Close
	if n != 5 {
		t.Errorf("closed pool ran %d of 5 tasks", n)
	}
	if w := p.Workers(); w != 1 {
		t.Errorf("closed pool Workers = %d, want 1", w)
	}
}

func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
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

// TestPoolCloseReleasesGoroutines asserts the pool leaks nothing: the
// goroutine count returns to its baseline once Close has run. The
// retry loop absorbs scheduler lag in goroutine teardown.
func TestPoolCloseReleasesGoroutines(t *testing.T) {
	// Workers of pools the preceding tests closed may still be exiting;
	// a baseline that counts them makes the parked-workers check below
	// fail once they are gone.
	before := runtime.NumGoroutine()
	for settled := 0; settled < 3; {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now == before {
			settled++
		} else {
			before, settled = now, 0
		}
	}
	pools := make([]*Pool, 0, 8)
	for i := 0; i < 8; i++ {
		p := NewPool(4)
		p.Run(100, func(int) {})
		pools = append(pools, p)
	}
	if mid := runtime.NumGoroutine(); mid < before+8*3 {
		t.Fatalf("expected parked workers: before=%d mid=%d", before, mid)
	}
	for _, p := range pools {
		p.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
