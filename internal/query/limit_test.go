package query

import (
	"context"
	"sync"
	"testing"
	"time"
)

// inFlight reports how many admitted requests currently hold a slot.
func (l *Limiter) inFlight() int64 {
	if l == nil {
		return 0
	}
	return int64(len(l.sem))
}

func TestLimiterAdmitsUpToCapacity(t *testing.T) {
	l := NewLimiter(2, 0)
	ctx := context.Background()
	if !l.Acquire(ctx) || !l.Acquire(ctx) {
		t.Fatal("slots within capacity refused")
	}
	if l.inFlight() != 2 {
		t.Errorf("in flight = %d", l.inFlight())
	}
	// Third request with no queue timeout is shed immediately.
	if l.Acquire(ctx) {
		t.Fatal("over-capacity request admitted with zero timeout")
	}
	l.Release()
	if !l.Acquire(ctx) {
		t.Fatal("freed slot not reusable")
	}
	l.Release()
	l.Release()
}

func TestLimiterQueueTimeout(t *testing.T) {
	l := NewLimiter(1, 20*time.Millisecond)
	ctx := context.Background()
	if !l.Acquire(ctx) {
		t.Fatal("first acquire failed")
	}
	start := time.Now()
	if l.Acquire(ctx) {
		t.Fatal("blocked slot acquired")
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Errorf("shed after %v, want ~20ms queue wait", waited)
	}
	l.Release()
}

func TestLimiterQueuedRequestGetsFreedSlot(t *testing.T) {
	l := NewLimiter(1, time.Second)
	ctx := context.Background()
	if !l.Acquire(ctx) {
		t.Fatal("first acquire failed")
	}
	got := make(chan bool)
	go func() { got <- l.Acquire(ctx) }()
	// Wait for the waiter to be queued, then free the slot.
	for l.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	l.Release()
	if !<-got {
		t.Fatal("queued request shed despite a freed slot")
	}
	l.Release()
}

func TestLimiterContextCancel(t *testing.T) {
	l := NewLimiter(1, time.Minute)
	if !l.Acquire(context.Background()) {
		t.Fatal("first acquire failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool)
	go func() { done <- l.Acquire(ctx) }()
	for l.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if <-done {
		t.Fatal("cancelled request admitted")
	}
	l.Release()
}

func TestLimiterNilUnlimited(t *testing.T) {
	var l *Limiter
	if l = NewLimiter(0, time.Second); l != nil {
		t.Fatal("maxInflight=0 should disable limiting")
	}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !l.Acquire(context.Background()) {
				t.Error("nil limiter shed a request")
			}
			l.Release()
		}()
	}
	wg.Wait()
	if l.QueueDepth() != 0 || l.inFlight() != 0 {
		t.Error("nil limiter reports occupancy")
	}
}
