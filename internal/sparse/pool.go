package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a handle on the process-wide set of helper goroutines that
// run the parallel kernels in this package. The helpers start on the
// first parallel Run that needs them and park on one shared job
// channel for the life of the process, so solvers pay
// goroutine-creation cost once per process, and a Pool owns nothing:
// it is a parallelism cap plus its own occupancy counters.
//
// A Run on a Pool of W workers wakes at most W-1 helpers; the
// goroutine calling Run always participates, so W=1 (and a nil *Pool)
// execute entirely inline with zero scheduling overhead. Tasks are
// handed out through an atomic counter, so a worker that finishes a
// cheap chunk immediately steals the next one — combined with the
// edge-balanced chunk plans built by NewTransition this keeps skewed
// citation graphs from serialising on their hottest rows.
//
// Run may be invoked from multiple goroutines and on multiple handles
// concurrently; each call blocks until its own tasks are complete.
type Pool struct {
	workers int

	// Occupancy counters for observability: Run invocations and tasks
	// dispatched through this handle.
	runs  atomic.Uint64
	tasks atomic.Uint64
}

// PoolStats is a point-in-time occupancy summary of a pool: its
// parallelism and the cumulative kernel sweeps (Runs) and chunk tasks
// (Tasks) it has executed. Tasks/Runs is the average chunk fan-out
// per sweep — how much of the pool each kernel actually engages.
type PoolStats struct {
	Workers int
	Runs    uint64
	Tasks   uint64
}

// Stats reports the pool's occupancy counters. A nil pool reports a
// single inline worker with no recorded activity.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{Workers: 1}
	}
	return PoolStats{Workers: p.workers, Runs: p.runs.Load(), Tasks: p.tasks.Load()}
}

// poolJob is one Run invocation: a task body and an atomic cursor
// over [0, total).
type poolJob struct {
	fn    func(task int)
	next  atomic.Int64
	total int64
	wg    sync.WaitGroup
}

func (j *poolJob) drain() {
	for {
		t := j.next.Add(1) - 1
		if t >= j.total {
			return
		}
		j.fn(int(t))
		j.wg.Done()
	}
}

// The helper set shared by every Pool. jobs has one slot per CPU: a
// Run never waits for a slot, so a full queue only means the helpers
// are already busy and the caller works alone. helpers.n only grows,
// to the largest worker count any Run has needed, less one.
var (
	jobs    = make(chan *poolJob, runtime.NumCPU())
	helpers struct {
		sync.Mutex
		n int
	}
)

// startHelpers ensures at least n helpers are parked on jobs.
func startHelpers(n int) {
	helpers.Lock()
	defer helpers.Unlock()
	for ; helpers.n < n; helpers.n++ {
		go func() {
			for j := range jobs {
				j.drain()
			}
		}()
	}
}

// NewPool returns a handle with the given number of workers; values
// < 1 select runtime.NumCPU(). The count is clamped to GOMAXPROCS:
// extra workers cannot add CPU throughput, they only add scheduling
// overhead to every kernel sweep.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	return &Pool{workers: workers}
}

// Workers returns the parallelism of the pool. A nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run executes fn(0) … fn(total-1), spreading the calls over the
// pool's workers, and returns when all of them have completed. Tasks
// are claimed dynamically, so uneven task costs balance themselves.
// On a nil or single-worker pool the calls run inline on the calling
// goroutine, in order.
func (p *Pool) Run(total int, fn func(task int)) {
	if total <= 0 {
		return
	}
	if p != nil {
		p.runs.Add(1)
		p.tasks.Add(uint64(total))
	}
	if p == nil || p.workers <= 1 || total == 1 {
		for i := 0; i < total; i++ {
			fn(i)
		}
		return
	}
	j := &poolJob{fn: fn, total: int64(total)}
	j.wg.Add(total)
	wake := min(p.workers, total) - 1
	startHelpers(wake)
	// Non-blocking wake-ups: if the queue is full every helper is
	// already busy, and the caller is better off working than waiting
	// for a free slot.
wakeLoop:
	for i := 0; i < wake; i++ {
		select {
		case jobs <- j:
		default:
			break wakeLoop
		}
	}
	j.drain() // the caller is a worker too
	j.wg.Wait()
}
