// Package ratelimit implements the token-bucket rate limiting that
// data-plane stages apply to intercepted I/O requests.
//
// In the SDS architecture (paper Fig. 1) a stage sits between the
// application and the PFS client and throttles operations to the limits the
// control plane computed. Stages keep one bucket per operation class (data
// and metadata IOPS), and the control plane retunes rates every cycle, so
// buckets support dynamic rate updates that wake blocked waiters.
package ratelimit

import (
	"context"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// pollInterval bounds how long a waiter sleeps before rechecking a bucket
// whose rate is zero or paused; rate changes wake waiters sooner.
const pollInterval = 100 * time.Millisecond

// TokenBucket is a classic token bucket: tokens accrue at Rate per second up
// to Burst, and each admitted operation consumes one token. It is safe for
// concurrent use.
type TokenBucket struct {
	mu      sync.Mutex
	rate    float64 // tokens per second; 0 blocks indefinitely
	burst   float64
	tokens  float64
	last    time.Time
	paused  bool
	changed chan struct{} // closed and remade on config changes
}

// NewTokenBucket creates a bucket admitting rate ops/s with the given burst
// capacity. A non-positive burst defaults to one second's worth of tokens
// (minimum 1).
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	return &TokenBucket{
		rate:    rate,
		burst:   burst,
		tokens:  burst,
		last:    time.Now(),
		changed: make(chan struct{}),
	}
}

// refill accrues tokens up to now. Callers hold mu.
func (b *TokenBucket) refill(now time.Time) {
	if b.rate <= 0 {
		b.last = now
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.tokens += dt * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// notifyChange wakes all waiters so they re-read the configuration.
// Callers hold mu.
func (b *TokenBucket) notifyChange() {
	close(b.changed)
	b.changed = make(chan struct{})
}

// SetRate retunes the bucket to rate ops/s (and proportionally adjusts the
// burst to one second's worth, minimum 1), waking blocked waiters.
func (b *TokenBucket) SetRate(rate float64) {
	b.mu.Lock()
	b.refill(time.Now())
	b.rate = rate
	b.burst = rate
	if b.burst < 1 {
		b.burst = 1
	}
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.notifyChange()
	b.mu.Unlock()
}

// Rate returns the current token accrual rate.
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// SetPaused pauses or resumes the bucket. A paused bucket admits nothing.
func (b *TokenBucket) SetPaused(p bool) {
	b.mu.Lock()
	b.paused = p
	b.notifyChange()
	b.mu.Unlock()
}

// Wait blocks until n tokens are available (or ctx ends), then consumes
// them. Rate changes and pauses take effect immediately, even for waiters
// already blocked.
func (b *TokenBucket) Wait(ctx context.Context, n float64) error {
	for {
		b.mu.Lock()
		now := time.Now()
		b.refill(now)
		var (
			sleep   time.Duration
			changed = b.changed
		)
		switch {
		case b.paused || b.rate <= 0:
			sleep = pollInterval
		case b.tokens >= n:
			b.tokens -= n
			b.mu.Unlock()
			return nil
		default:
			need := n - b.tokens
			sleep = time.Duration(need / b.rate * float64(time.Second))
			if sleep <= 0 {
				sleep = time.Microsecond
			}
		}
		b.mu.Unlock()

		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-changed:
			t.Stop()
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// MultiBucket holds one token bucket per operation class and applies
// control-plane rules atomically across them.
type MultiBucket struct {
	mu        sync.Mutex
	buckets   [wire.NumClasses]*TokenBucket
	unlimited bool
}

// NewMultiBucket creates a per-class limiter initially admitting limit[c]
// ops/s for each class c.
func NewMultiBucket(limit wire.Rates) *MultiBucket {
	m := &MultiBucket{}
	for c := range m.buckets {
		m.buckets[c] = NewTokenBucket(limit[c], 0)
	}
	return m
}

// NewUnlimited creates a limiter that admits everything until a rule says
// otherwise.
func NewUnlimited() *MultiBucket {
	m := NewMultiBucket(wire.Rates{})
	m.unlimited = true
	return m
}

// Admit blocks until one operation of the given class may proceed.
func (m *MultiBucket) Admit(ctx context.Context, class wire.OpClass) error {
	m.mu.Lock()
	if m.unlimited {
		m.mu.Unlock()
		return ctx.Err()
	}
	b := m.buckets[class]
	m.mu.Unlock()
	return b.Wait(ctx, 1)
}

// ApplyRule reconfigures the limiter from a control-plane rule.
func (m *MultiBucket) ApplyRule(r wire.Rule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r.Action {
	case wire.ActionNoLimit:
		m.unlimited = true
		for _, b := range m.buckets {
			b.SetPaused(false)
		}
	case wire.ActionPause:
		m.unlimited = false
		for _, b := range m.buckets {
			b.SetPaused(true)
		}
	case wire.ActionSetLimit:
		m.unlimited = false
		for c, b := range m.buckets {
			b.SetPaused(false)
			b.SetRate(r.Limit[c])
		}
	}
}

// Limits returns the current per-class rates (0 for all classes when
// unlimited, alongside unlimited=true).
func (m *MultiBucket) Limits() (limits wire.Rates, unlimited bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for c, b := range m.buckets {
		limits[c] = b.Rate()
	}
	return limits, m.unlimited
}
