package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errAbsent is what peek's computation fails with; errors are never
// cached, so peeking leaves the cache as it found it.
var errAbsent = errors.New("absent")

// peek reports the body resident under key without computing one.
func peek(c *Cache, key string) ([]byte, bool) {
	body, how, err := c.Do(context.Background(), key, func(context.Context) ([]byte, error) { return nil, errAbsent })
	return body, err == nil && how == Hit
}

// fill makes val resident under key through a computed miss.
func fill(t *testing.T, c *Cache, key, val string) {
	t.Helper()
	if _, _, err := c.Do(context.Background(), key, func(context.Context) ([]byte, error) { return []byte(val), nil }); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds, failing the test after a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waiters reports how many callers wait on key's flight (0 without one).
func waiters(c *Cache, key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f.waiters
	}
	return 0
}

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(2)
	if _, ok := peek(c, "a"); ok {
		t.Error("hit on empty cache")
	}
	fill(t, c, "a", "A")
	fill(t, c, "b", "B")
	if v, ok := peek(c, "a"); !ok || string(v) != "A" {
		t.Errorf("a = %q, %v", v, ok)
	}
	// a was just used, so inserting c evicts b (the LRU entry).
	fill(t, c, "c", "C")
	if _, ok := peek(c, "b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := peek(c, "a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

// TestCacheUpdateExisting covers the one way a resident key is
// stored again: a flight abandoned by its waiters still completes after
// a fresh flight for the same key has cached its body.
func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache(4)
	c.mu.Lock()
	c.put("k", []byte("v1"))
	c.put("k", []byte("v2"))
	c.mu.Unlock()
	if v, _ := peek(c, "k"); string(v) != "v2" {
		t.Errorf("k = %q", v)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after double put", c.Len())
	}
}

// TestCacheVersionKeying is the invalidation-by-keying contract: the
// same normalized request under a new generation version is a
// different key, so a hot swap can never serve a stale body.
func TestCacheVersionKeying(t *testing.T) {
	c := NewCache(16)
	fill(t, c, "1|venue=v|k=10", "old")
	if _, ok := peek(c, "2|venue=v|k=10"); ok {
		t.Fatal("new-version key hit an old-version entry")
	}
}

// TestCacheNilDisabled: a nil cache runs every computation under the
// caller's own context, caches nothing and never reports a hit.
func TestCacheNilDisabled(t *testing.T) {
	var c *Cache
	if c = NewCache(0); c != nil {
		t.Fatal("max=0 should disable the cache")
	}
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "mine")
	calls := 0
	for i := 0; i < 2; i++ {
		body, how, err := c.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			calls++
			if fctx != ctx {
				t.Error("nil cache ran fn under another context")
			}
			return []byte("v"), nil
		})
		if err != nil || how != Computed || string(body) != "v" {
			t.Errorf("call %d: %q %v %v", i, body, how, err)
		}
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2", calls)
	}
	if c.Len() != 0 {
		t.Error("nil cache has entries")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w*13+i)%100)
				v, _, err := c.Do(ctx, k, func(context.Context) ([]byte, error) { return []byte(k), nil })
				if err != nil || string(v) != k {
					t.Errorf("%s = %q, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 64 {
		t.Errorf("cache overflowed its bound: %d", n)
	}
}

// TestDoCoalescesOneKey: sixteen callers of one cold key run fn once
// and all receive the same bytes; one of them led, the rest coalesced,
// and the key is resident afterwards.
func TestDoCoalescesOneKey(t *testing.T) {
	c := NewCache(8)
	release := make(chan struct{})
	var calls atomic.Int32
	fn := func(context.Context) ([]byte, error) {
		calls.Add(1)
		<-release
		return []byte("body"), nil
	}
	const callers = 16
	bodies := make([][]byte, callers)
	hows := make([]Outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if bodies[i], hows[i], err = c.Do(context.Background(), "k", fn); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitFor(t, "every caller to join the flight", func() bool { return waiters(c, "k") == callers })
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	counts := map[Outcome]int{}
	for i := range bodies {
		counts[hows[i]]++
		if !bytes.Equal(bodies[i], []byte("body")) {
			t.Errorf("caller %d got %q", i, bodies[i])
		}
	}
	if counts[Computed] != 1 || counts[Coalesced] != callers-1 {
		t.Errorf("outcomes = %v, want 1 computed and %d coalesced", counts, callers-1)
	}
	if _, ok := peek(c, "k"); !ok {
		t.Error("the flight's body was not cached")
	}
}

// TestDoKeysDoNotBlockEachOther: a miss on key B computes while key A's
// computation is still blocked.
func TestDoKeysDoNotBlockEachOther(t *testing.T) {
	c := NewCache(8)
	release := make(chan struct{})
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		_, _, _ = c.Do(context.Background(), "a", func(context.Context) ([]byte, error) {
			<-release
			return []byte("A"), nil
		})
	}()
	waitFor(t, "a's flight", func() bool { return waiters(c, "a") == 1 })
	body, how, err := c.Do(context.Background(), "b", func(context.Context) ([]byte, error) { return []byte("B"), nil })
	if err != nil || how != Computed || string(body) != "B" {
		t.Errorf("b while a computes: %q %v %v", body, how, err)
	}
	close(release)
	<-aDone
}

// TestDoErrorNotCached: a failed flight hands its error to its waiters
// and caches nothing, so the next caller computes again.
func TestDoErrorNotCached(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("boom")
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			<-release
			return nil, boom
		})
		leaderErr <- err
	}()
	waitFor(t, "the leader's flight", func() bool { return waiters(c, "k") == 1 })
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			t.Error("the follower computed instead of joining the flight")
			return nil, nil
		})
		followerErr <- err
	}()
	waitFor(t, "the follower to join", func() bool { return waiters(c, "k") == 2 })
	close(release)
	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Errorf("leader err = %v", err)
	}
	if err := <-followerErr; !errors.Is(err, boom) {
		t.Errorf("follower err = %v", err)
	}
	if c.Len() != 0 {
		t.Error("an error was cached")
	}
	body, how, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || how != Computed || string(body) != "ok" {
		t.Errorf("after the error: %q %v %v, want a fresh computation", body, how, err)
	}
}

// TestDoPanicReleasesWaiters: a leader that panics inside fn still
// completes its flight, so the waiter gets an error instead of blocking
// forever, and the panic reaches the leader's caller.
func TestDoPanicReleasesWaiters(t *testing.T) {
	c := NewCache(8)
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _, _ = c.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
			<-release
			panic("walk exploded")
		})
	}()
	waitFor(t, "the leader's flight", func() bool { return waiters(c, "k") == 1 })
	followerErr := make(chan error, 1)
	go func() {
		_, how, err := c.Do(context.Background(), "k", nil)
		if how != Coalesced {
			t.Errorf("follower outcome = %v", how)
		}
		followerErr <- err
	}()
	waitFor(t, "the follower to join", func() bool { return waiters(c, "k") == 2 })
	close(release)
	if r := <-recovered; r != "walk exploded" {
		t.Errorf("leader recovered %v, want the original panic", r)
	}
	select {
	case err := <-followerErr:
		if err == nil {
			t.Error("the follower of a panicked flight got no error")
		}
	case <-time.After(time.Second):
		t.Fatal("the follower is stranded on a panicked flight")
	}
	if c.Len() != 0 {
		t.Error("a panicked flight cached a body")
	}
}

// TestDoCancelFollowsWaiters: fn's context survives the leader leaving
// while a follower still waits (the follower then gets the body), and
// is cancelled once the last waiter leaves, which also unlists the
// flight so the next caller computes afresh.
func TestDoCancelFollowsWaiters(t *testing.T) {
	c := NewCache(8)
	started := make(chan context.Context, 2)
	release := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		started <- ctx
		select {
		case <-release:
			return []byte("body"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// The leader leaves early; the follower keeps the flight alive.
	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.Do(leaderCtx, "k", fn)
	}()
	fctx := <-started
	followerBody := make(chan []byte, 1)
	go func() {
		body, _, err := c.Do(context.Background(), "k", fn)
		if err != nil {
			t.Error(err)
		}
		followerBody <- body
	}()
	waitFor(t, "the follower to join", func() bool { return waiters(c, "k") == 2 })
	leaderCancel()
	waitFor(t, "the leader to leave", func() bool { return waiters(c, "k") == 1 })
	if fctx.Err() != nil {
		t.Fatal("fn was cancelled while a follower still waited")
	}
	close(release)
	if body := <-followerBody; string(body) != "body" {
		t.Errorf("follower got %q after the leader left", body)
	}
	<-leaderDone

	// Every waiter leaves: fn's context is cancelled and nothing is
	// cached.
	c2 := NewCache(8)
	release = make(chan struct{})
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() { _, _, err := c2.Do(ctxA, "k", fn); errs <- err }()
	fctx = <-started
	go func() { _, _, err := c2.Do(ctxB, "k", fn); errs <- err }()
	waitFor(t, "both waiters", func() bool { return waiters(c2, "k") == 2 })
	cancelB()
	cancelA()
	select {
	case <-fctx.Done():
	case <-time.After(time.Second):
		t.Fatal("fn's context outlived its last waiter")
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("abandoned waiter err = %v", err)
		}
	}
	if c2.Len() != 0 {
		t.Error("an abandoned flight cached a body")
	}
	body, how, err := c2.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || how != Computed || string(body) != "fresh" {
		t.Errorf("after abandonment: %q %v %v, want a fresh computation", body, how, err)
	}
}

// TestDoFlightKeepsLeaderValues: fn's context carries the leader's
// values (its trace) even though its cancellation is the flight's.
func TestDoFlightKeepsLeaderValues(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "trace")
	_, _, err := NewCache(4).Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
		if fctx.Value(key{}) != "trace" {
			t.Error("fn's context lost the leader's values")
		}
		return []byte("v"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
