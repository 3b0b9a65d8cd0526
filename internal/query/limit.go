package query

import (
	"context"
	"sync/atomic"
	"time"
)

// Limiter is admission control for the read path: a concurrency
// semaphore with a bounded queue wait. A request either gets a slot
// immediately, waits in the queue for at most the configured timeout,
// or is shed — the serving layer translates a failed Acquire into
// 503 + Retry-After, so overload degrades into fast explicit refusals
// instead of an ever-growing backlog.
//
// A nil *Limiter admits everything, so an unconfigured server keeps
// its previous unlimited behaviour without call-site branching.
type Limiter struct {
	sem     chan struct{}
	timeout time.Duration
	queued  atomic.Int64
}

// NewLimiter returns a limiter admitting at most maxInflight
// concurrent requests, queueing excess ones for up to queueTimeout.
// maxInflight <= 0 disables limiting (returns nil); queueTimeout <= 0
// sheds immediately once all slots are busy.
func NewLimiter(maxInflight int, queueTimeout time.Duration) *Limiter {
	if maxInflight <= 0 {
		return nil
	}
	return &Limiter{sem: make(chan struct{}, maxInflight), timeout: queueTimeout}
}

// Acquire takes a slot, waiting up to the queue timeout. It reports
// false when the request should be shed — the timeout elapsed or the
// caller's context was cancelled (client gone). Every true return
// must be paired with Release.
func (l *Limiter) Acquire(ctx context.Context) bool {
	if l == nil {
		return true
	}
	select {
	case l.sem <- struct{}{}:
		return true
	default:
	}
	if l.timeout <= 0 {
		return false
	}
	l.queued.Add(1)
	defer l.queued.Add(-1)
	t := time.NewTimer(l.timeout)
	defer t.Stop()
	select {
	case l.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// Release returns a slot taken by a successful Acquire.
func (l *Limiter) Release() {
	if l != nil {
		<-l.sem
	}
}

// QueueDepth reports how many requests are currently waiting for a
// slot — the gauge operators watch to see overload building before
// shedding starts.
func (l *Limiter) QueueDepth() int64 {
	if l == nil {
		return 0
	}
	return l.queued.Load()
}
