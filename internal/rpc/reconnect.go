package rpc

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// ErrDisconnected is returned by ReconnectingClient.Call while the wrapper
// has no live connection (a redial is in progress in the background).
var ErrDisconnected = errors.New("rpc: disconnected, redial in progress")

// ReconnectPolicy shapes the redial backoff of a ReconnectingClient.
// The zero value selects the defaults documented per field.
type ReconnectPolicy struct {
	// BaseDelay is the wait before the first redial attempt (default 20ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay after each failed attempt (default 2).
	Multiplier float64
	// Jitter is the fraction of the delay randomized symmetrically around
	// it, de-synchronizing redial storms after a shared fault (default 0.5,
	// meaning delay is drawn from [0.5d, 1.5d)). Set negative for none.
	Jitter float64
	// DialTimeout bounds each individual redial attempt (default 5s).
	DialTimeout time.Duration
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 20 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = 5 * time.Second
	}
	return p
}

// next returns the jittered form of delay and the grown delay for the
// following attempt. Jitter is drawn from rng, the calling reconnector's own
// source: the global math/rand source hides a mutex every caller shares, and
// with thousands of children redialing after a failover that one lock would
// serialize the very retry storm the jitter exists to spread out.
func (p ReconnectPolicy) next(rng *rand.Rand, delay time.Duration) (wait, grown time.Duration) {
	wait = delay
	if p.Jitter > 0 {
		span := float64(delay) * p.Jitter
		wait = delay + time.Duration((rng.Float64()*2-1)*span)
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
	}
	grown = time.Duration(float64(delay) * p.Multiplier)
	if grown > p.MaxDelay {
		grown = p.MaxDelay
	}
	return wait, grown
}

// ReconnectingClient wraps a Client with automatic redial. When the
// underlying connection dies, a background loop redials through the
// transport with exponential backoff and jitter. Nothing is replayed:
// calls in flight when the connection drops fail fast, calls issued while
// disconnected fail immediately with ErrDisconnected, and new calls use
// the fresh connection once the redial succeeds.
type ReconnectingClient struct {
	network transport.Network
	addr    string
	opts    DialOptions
	policy  ReconnectPolicy
	// rng is this reconnector's private jitter source, built by the first
	// redial that has to back off (a math/rand source is ~5 KB, and most of a
	// fleet's connections never redial). Only the redial loop touches it, and
	// at most one redial loop runs at a time.
	rng *rand.Rand

	mu         sync.Mutex
	cur        *Client
	lastErr    error // why cur is nil
	redialing  bool
	closed     bool
	reconnects uint64

	done chan struct{}
}

// DialReconnecting connects to addr and returns a client that transparently
// redials (under policy) whenever the connection later dies. The initial
// dial is synchronous: if it fails, no client is returned.
func DialReconnecting(ctx context.Context, network transport.Network, addr string, opts DialOptions, policy ReconnectPolicy) (*ReconnectingClient, error) {
	cli, err := Dial(ctx, network, addr, opts)
	if err != nil {
		return nil, err
	}
	return &ReconnectingClient{
		network: network,
		addr:    addr,
		opts:    opts,
		policy:  policy.withDefaults(),
		cur:     cli,
		done:    make(chan struct{}),
	}, nil
}

// jitterSource returns the private jitter source, seeding it on first use
// from the clock and the address, so simultaneous reconnectors start
// decorrelated even when their clocks agree.
func (r *ReconnectingClient) jitterSource() *rand.Rand {
	if r.rng == nil {
		h := fnv.New64a()
		_, _ = h.Write([]byte(r.addr))
		r.rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(h.Sum64())))
	}
	return r.rng
}

// Addr returns the remote address the client (re)dials.
func (r *ReconnectingClient) Addr() string { return r.addr }

// Connected reports whether a live connection is currently attached.
func (r *ReconnectingClient) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur != nil
}

// Reconnects returns how many times the client has re-established the
// connection since creation.
func (r *ReconnectingClient) Reconnects() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// Call issues req on the current connection. While disconnected it fails
// fast with ErrDisconnected (wrapping the cause) rather than blocking on
// the redial.
func (r *ReconnectingClient) Call(ctx context.Context, req wire.Message) (wire.Message, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClientClosed
	}
	cli := r.cur
	cause := r.lastErr
	r.mu.Unlock()

	if cli == nil {
		if cause != nil {
			return nil, fmt.Errorf("%w (%v)", ErrDisconnected, cause)
		}
		return nil, ErrDisconnected
	}
	resp, err := cli.Call(ctx, req)
	if err != nil && ctx.Err() == nil {
		// Not the caller's own cancellation: check whether the connection
		// itself is dead and, if so, start the background redial.
		if cerr := cli.Err(); cerr != nil {
			r.markDead(cli, cerr)
		}
	}
	return resp, err
}

// Go issues req asynchronously on the current connection and returns its
// completion handle (see Client.Go). While disconnected the handle completes
// immediately with ErrDisconnected. Because the outcome surfaces at
// Call.Wait rather than here, the wrapper cannot observe connection death by
// itself: harvesters must report failed calls back via NoteError so the
// background redial starts.
func (r *ReconnectingClient) Go(ctx context.Context, req wire.Message) *Call {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return failedCall(ErrClientClosed)
	}
	cli := r.cur
	cause := r.lastErr
	r.mu.Unlock()

	if cli == nil {
		if cause != nil {
			return failedCall(fmt.Errorf("%w (%v)", ErrDisconnected, cause))
		}
		return failedCall(ErrDisconnected)
	}
	return cli.Go(ctx, req)
}

// GoShared issues the broadcast frame f asynchronously on the current
// connection (see Client.GoShared), with Go's disconnection semantics: while
// disconnected the handle completes immediately with ErrDisconnected and no
// reference on f is taken.
func (r *ReconnectingClient) GoShared(ctx context.Context, f *SharedFrame) *Call {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return failedCall(ErrClientClosed)
	}
	cli := r.cur
	cause := r.lastErr
	r.mu.Unlock()

	if cli == nil {
		if cause != nil {
			return failedCall(fmt.Errorf("%w (%v)", ErrDisconnected, cause))
		}
		return failedCall(ErrDisconnected)
	}
	return cli.GoShared(ctx, f)
}

// NoteError is the harvest-side counterpart of Go: given the error of a
// completed asynchronous call, it checks whether the underlying connection
// died and, if so, detaches it and starts the background redial — exactly
// what Call does inline for synchronous calls. Errors caused by the caller's
// own context are ignored.
func (r *ReconnectingClient) NoteError(ctx context.Context, err error) {
	if err == nil || ctx.Err() != nil {
		return
	}
	r.mu.Lock()
	cli := r.cur
	r.mu.Unlock()
	if cli == nil {
		return // already detached; redial in progress
	}
	if cerr := cli.Err(); cerr != nil {
		r.markDead(cli, cerr)
	}
}

// markDead detaches old (if still current) and kicks the redial loop.
func (r *ReconnectingClient) markDead(old *Client, cause error) {
	r.mu.Lock()
	if r.closed || r.cur != old {
		r.mu.Unlock()
		return
	}
	r.cur = nil
	r.lastErr = cause
	start := !r.redialing
	r.redialing = true
	r.mu.Unlock()
	old.Close()
	if start {
		go r.redialLoop()
	}
}

// redialLoop re-establishes the connection with exponential backoff and
// jitter, stopping on Close.
func (r *ReconnectingClient) redialLoop() {
	delay := r.policy.BaseDelay
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		dctx, cancel := context.WithTimeout(context.Background(), r.policy.DialTimeout)
		cli, err := Dial(dctx, r.network, r.addr, r.opts)
		cancel()
		if err == nil {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				cli.Close()
				return
			}
			r.cur = cli
			r.lastErr = nil
			r.redialing = false
			r.reconnects++
			r.mu.Unlock()
			return
		}
		r.mu.Lock()
		r.lastErr = err
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return
		}
		var wait time.Duration
		wait, delay = r.policy.next(r.jitterSource(), delay)
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-r.done:
			return
		}
	}
}

// Close tears down the current connection (failing pending calls) and stops
// any background redial.
func (r *ReconnectingClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	cli := r.cur
	r.cur = nil
	r.mu.Unlock()
	close(r.done)
	if cli != nil {
		return cli.Close()
	}
	return nil
}
