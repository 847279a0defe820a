package ratelimit

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// doneCtx is a context that is already done: Wait and Admit under it take a
// token that is available at once and fail rather than wait for one.
var doneCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

func TestTryTakeWithinBurst(t *testing.T) {
	b := NewTokenBucket(100, 10)
	for i := 0; i < 10; i++ {
		if err := b.Wait(doneCtx, 1); err != nil {
			t.Fatalf("take %d within burst: %v", i, err)
		}
	}
	if err := b.Wait(doneCtx, 1); err == nil {
		t.Fatal("take beyond burst succeeded immediately")
	}
}

func TestTokensRefill(t *testing.T) {
	b := NewTokenBucket(1000, 10)
	for i := 0; i < 10; i++ {
		if err := b.Wait(doneCtx, 1); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // ~50 tokens accrue, capped at burst 10
	b.mu.Lock()
	b.refill(time.Now())
	got := b.tokens
	b.mu.Unlock()
	if got < 5 || got > 10 {
		t.Errorf("Tokens after refill = %g, want in [5, 10]", got)
	}
}

func TestWaitThroughputBounded(t *testing.T) {
	// At 1000 ops/s, 100 ops should take ~100ms (after the initial burst).
	b := NewTokenBucket(1000, 1)
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := b.Wait(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Errorf("100 ops at 1000 ops/s took %v, want >= ~100ms", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("100 ops at 1000 ops/s took %v, far too slow", elapsed)
	}
}

func TestWaitContextCancel(t *testing.T) {
	b := NewTokenBucket(0, 1) // zero rate: waits forever without cancel
	b.Wait(doneCtx, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := b.Wait(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait = %v, want DeadlineExceeded", err)
	}
}

func TestSetRateWakesWaiter(t *testing.T) {
	b := NewTokenBucket(0, 1)
	b.Wait(doneCtx, 1) // drain
	done := make(chan error, 1)
	go func() { done <- b.Wait(context.Background(), 1) }()
	time.Sleep(20 * time.Millisecond)
	b.SetRate(1e6) // plenty of tokens almost immediately
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait after SetRate: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by SetRate")
	}
}

func TestPause(t *testing.T) {
	b := NewTokenBucket(1e6, 10)
	b.SetPaused(true)
	if err := b.Wait(doneCtx, 1); err == nil {
		t.Fatal("a paused bucket admitted an operation")
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait(context.Background(), 1) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Wait completed while paused")
	default:
	}
	b.SetPaused(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait after resume: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by resume")
	}
}

func TestBurstDefaults(t *testing.T) {
	b := NewTokenBucket(50, 0)
	if b.burst != 50 || b.tokens != 50 {
		t.Errorf("default burst = %g with %g tokens, want 50 (rate)", b.burst, b.tokens)
	}
	tiny := NewTokenBucket(0.1, 0)
	if tiny.burst != 1 || tiny.tokens != 1 {
		t.Errorf("minimum burst = %g with %g tokens, want 1", tiny.burst, tiny.tokens)
	}
}

func TestRateAccessor(t *testing.T) {
	b := NewTokenBucket(123, 0)
	if b.Rate() != 123 {
		t.Errorf("Rate = %g", b.Rate())
	}
	b.SetRate(456)
	if b.Rate() != 456 {
		t.Errorf("Rate after SetRate = %g", b.Rate())
	}
}

func TestConcurrentWaiters(t *testing.T) {
	b := NewTokenBucket(10000, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs <- b.Wait(ctx, 1)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent Wait: %v", err)
		}
	}
}

// TestAdmissionNeverExceedsRateProperty: over any measured interval the
// bucket admits at most rate*interval + burst operations.
func TestAdmissionNeverExceedsRateProperty(t *testing.T) {
	f := func(rateRaw, burstRaw uint16) bool {
		rate := float64(rateRaw%5000) + 100
		burst := float64(burstRaw%100) + 1
		b := NewTokenBucket(rate, burst)
		start := time.Now()
		var admitted int
		for time.Since(start) < 20*time.Millisecond {
			if b.Wait(doneCtx, 1) == nil {
				admitted++
			}
		}
		elapsed := time.Since(start).Seconds()
		limit := rate*elapsed + burst + 1
		return float64(admitted) <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestMultiBucketClasses(t *testing.T) {
	m := NewMultiBucket(wire.Rates{5, 1})
	// Data class has 5 tokens of burst, meta has 1.
	for i := 0; i < 5; i++ {
		if err := m.Admit(doneCtx, wire.ClassData); err != nil {
			t.Fatalf("data admit %d: %v", i, err)
		}
	}
	if err := m.Admit(doneCtx, wire.ClassData); err == nil {
		t.Error("data admit beyond burst succeeded")
	}
	if err := m.Admit(doneCtx, wire.ClassMeta); err != nil {
		t.Fatalf("meta admit: %v", err)
	}
	if err := m.Admit(doneCtx, wire.ClassMeta); err == nil {
		t.Error("meta admit beyond burst succeeded")
	}
}

func TestMultiBucketUnlimited(t *testing.T) {
	m := NewUnlimited()
	for i := 0; i < 10000; i++ {
		if err := m.Admit(context.Background(), wire.ClassData); err != nil {
			t.Fatalf("unlimited admit: %v", err)
		}
	}
	if err := m.Admit(context.Background(), wire.ClassMeta); err != nil {
		t.Fatalf("unlimited blocking admit: %v", err)
	}
}

func TestMultiBucketApplyRules(t *testing.T) {
	m := NewUnlimited()

	m.ApplyRule(wire.Rule{Action: wire.ActionSetLimit, Limit: wire.Rates{3, 2}})
	limits, unlimited := m.Limits()
	if unlimited {
		t.Error("still unlimited after SetLimit")
	}
	if limits != (wire.Rates{3, 2}) {
		t.Errorf("limits = %v", limits)
	}

	m.ApplyRule(wire.Rule{Action: wire.ActionPause})
	if err := m.Admit(doneCtx, wire.ClassData); err == nil {
		t.Error("admitted while paused")
	}

	m.ApplyRule(wire.Rule{Action: wire.ActionNoLimit})
	if _, unlimited := m.Limits(); !unlimited {
		t.Error("not unlimited after NoLimit")
	}
	if err := m.Admit(context.Background(), wire.ClassData); err != nil {
		t.Errorf("Admit after NoLimit: %v", err)
	}
}

func TestMultiBucketRuleRetuning(t *testing.T) {
	m := NewMultiBucket(wire.Rates{100, 10})
	m.ApplyRule(wire.Rule{Action: wire.ActionSetLimit, Limit: wire.Rates{200, 20}})
	limits, _ := m.Limits()
	if limits != (wire.Rates{200, 20}) {
		t.Errorf("retuned limits = %v", limits)
	}
}

func BenchmarkWait(b *testing.B) {
	bucket := NewTokenBucket(1e12, 1e12)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bucket.Wait(ctx, 1)
	}
}

func BenchmarkAdmitUnlimited(b *testing.B) {
	m := NewUnlimited()
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		m.Admit(ctx, wire.ClassData)
	}
}
