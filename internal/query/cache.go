package query

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Cache is a size-bounded LRU over rendered responses that computes
// each missing key once, however many callers ask for it at the same
// time (see Do). It is deliberately key-agnostic: the serving layer
// keys entries on the normalized request plus the ranking generation
// version, which makes hot-swap invalidation free — a new generation
// changes every key, so stale entries are never hit again and age out
// of the LRU under normal traffic.
//
// A nil *Cache is a valid, always-missing cache that never coalesces,
// so callers can disable caching without branching at every call site.
// All methods are safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	// flights holds the computation in progress for each missing key
	// that has one.
	flights map[string]*flight
}

// cacheEntry is one resident response.
type cacheEntry struct {
	key string
	val []byte
}

// flight is one computation of a missing key, shared by every caller
// that asks for the key while it runs.
type flight struct {
	done chan struct{} // closed once body and err are set
	body []byte
	err  error
	// waiters counts the callers still waiting on the flight, its
	// leader included; guarded by Cache.mu. The last one to leave
	// cancels the computation.
	waiters int
	cancel  context.CancelFunc
}

// Outcome says how Do produced a body.
type Outcome uint8

const (
	// Hit: the body was resident.
	Hit Outcome = iota
	// Computed: the caller ran fn itself, as the leader of the key's
	// flight (or on a nil cache).
	Computed
	// Coalesced: another caller's flight computed the body while this
	// caller waited for it.
	Coalesced
)

// NewCache returns a cache bounded to max entries. max <= 0 disables
// caching (returns nil).
func NewCache(max int) *Cache {
	if max <= 0 {
		return nil
	}
	return &Cache{max: max, ll: list.New(), items: make(map[string]*list.Element, max),
		flights: make(map[string]*flight)}
}

// Do returns the body cached under key, computing it with fn when it
// is missing. The returned slice is shared: callers must treat it as
// read-only.
//
//   - A resident key is a hit: one mutex acquisition, nothing else.
//   - A missing key with no computation in progress makes the caller
//     the leader of a flight: it runs fn on its own goroutine, caches
//     the body when fn succeeds, and hands the result to everyone who
//     joined the flight meanwhile.
//   - A missing key with a flight in progress makes the caller wait for
//     that flight, or for its own ctx, whichever ends first.
//
// fn runs under a context of the flight's own: it carries the leader's
// values (its trace), but it is cancelled only when every caller
// waiting on the flight, the leader included, has had its own ctx
// done. A leader whose client hangs up therefore still computes the
// body for its followers, and a computation nobody waits for any more
// is told to stop. A caller whose ctx ends before the body arrives gets
// ctx's error.
//
// Errors are never cached: a flight that fails hands its error to the
// callers waiting on it, and the next caller computes again. A flight
// whose fn panics fails with an error, and the panic goes on up the
// leader's stack. A nil cache calls fn with ctx and reports Computed.
func (c *Cache) Do(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (body []byte, how Outcome, err error) {
	if c == nil {
		body, err = fn(ctx)
		return body, Computed, err
	}
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		body = e.Value.(*cacheEntry).val
		c.mu.Unlock()
		return body, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		f.waiters++
		c.mu.Unlock()
		stop := context.AfterFunc(ctx, func() { c.leave(key, f) })
		defer stop()
		select {
		case <-f.done:
			return f.body, Coalesced, f.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.flights[key] = f
	c.mu.Unlock()
	stop := context.AfterFunc(ctx, func() { c.leave(key, f) })
	defer stop()
	body, err = c.lead(fctx, key, f, fn)
	return body, Computed, err
}

// lead runs a flight's computation and completes the flight with its
// result. If fn panics, the flight completes with an error before the
// panic unwinds any further, so no waiter is left blocked.
func (c *Cache) lead(ctx context.Context, key string, f *flight, fn func(context.Context) ([]byte, error)) (body []byte, err error) {
	completed := false
	defer func() {
		if !completed {
			c.finish(key, f, nil, fmt.Errorf("query: computing %q panicked", key))
		}
	}()
	body, err = fn(ctx)
	completed = true
	c.finish(key, f, body, err)
	return body, err
}

// finish retires a flight: a successful body becomes resident in the
// same critical section that removes the flight, so no caller can find
// the key neither cached nor in flight and compute it a second time.
func (c *Cache) finish(key string, f *flight, body []byte, err error) {
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if err == nil {
		c.put(key, body)
	}
	c.mu.Unlock()
	f.body, f.err = body, err
	close(f.done)
	f.cancel()
}

// leave records that one waiter of f has had its context done. The
// last one out cancels the computation and unlists the flight, so a
// later caller for the key starts afresh instead of joining a
// computation that is stopping.
func (c *Cache) leave(key string, f *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.waiters--; f.waiters > 0 {
		return
	}
	f.cancel()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
}

// put inserts or refreshes key, evicting the least recently used
// entry when the cache is full. The value is retained, not copied.
// c.mu must be held.
func (c *Cache) put(key string, val []byte) {
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	if c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
