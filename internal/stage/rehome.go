package stage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// fence tracks the highest leadership epoch a stage has seen and the time
// of the last control-plane contact. It implements the child side of epoch
// fencing: calls carrying an epoch below the highest seen are rejected with
// CodeStaleEpoch, so a deposed primary can never read metrics from or push
// rules to a stage the new leader already controls. Every word is atomic: a
// call at the current epoch, the steady state, is admitted with one load.
type fence struct {
	// watched is set once at construction, before the stage serves, when
	// something reads contact() — a Virtual stage's parent watchdog.
	// Without a watcher the per-request clock read is skipped.
	watched bool

	epoch       atomic.Uint64
	fenced      atomic.Uint64
	lastContact atomic.Int64 // since contactBase, so that it stays monotonic
}

// contactBase anchors fence contact times on the monotonic clock.
var contactBase = time.Now()

// check admits or rejects a call carrying the sender's leadership epoch.
// Higher epochs are adopted; lower ones are fenced.
func (f *fence) check(who string, senderEpoch uint64) *wire.ErrorReply {
	for cur := f.epoch.Load(); senderEpoch != cur; cur = f.epoch.Load() {
		if senderEpoch < cur {
			f.fenced.Add(1)
			return &wire.ErrorReply{
				Code:  wire.CodeStaleEpoch,
				Text:  fmt.Sprintf("%s: sender epoch %d deposed, current epoch is %d", who, senderEpoch, cur),
				Epoch: cur,
			}
		}
		if f.epoch.CompareAndSwap(cur, senderEpoch) {
			break
		}
	}
	f.touch()
	return nil
}

// touch records control-plane contact; heartbeats, which carry no epoch,
// call it directly.
func (f *fence) touch() {
	if f.watched {
		f.lastContact.Store(int64(time.Since(contactBase)))
	}
}

// adopt raises the fencing floor to epoch (never lowers it).
func (f *fence) adopt(epoch uint64) {
	for cur := f.epoch.Load(); epoch > cur; cur = f.epoch.Load() {
		if f.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// current returns the highest epoch seen.
func (f *fence) current() uint64 { return f.epoch.Load() }

// fencedCalls returns how many calls were rejected as stale.
func (f *fence) fencedCalls() uint64 { return f.fenced.Load() }

// contact returns the time of the last control-plane contact.
func (f *fence) contact() time.Time {
	return contactBase.Add(time.Duration(f.lastContact.Load()))
}

// RegisterOptions tunes the retry behaviour of RegisterAny.
type RegisterOptions struct {
	// Attempts is the number of passes over the address list before giving
	// up. Zero selects DefaultRegisterAttempts; negative values retry until
	// the context is done.
	Attempts int
	// BaseDelay is the backoff before the second pass; it doubles per pass
	// (with jitter) up to MaxDelay. Zeros select the defaults.
	BaseDelay, MaxDelay time.Duration
}

// Registration retry defaults.
const (
	// DefaultRegisterAttempts is how many passes over the parent address
	// list Register makes before giving up.
	DefaultRegisterAttempts = 4
	// DefaultRegisterBaseDelay is the backoff before the second pass.
	DefaultRegisterBaseDelay = 25 * time.Millisecond
	// DefaultRegisterMaxDelay caps the per-pass backoff.
	DefaultRegisterMaxDelay = 500 * time.Millisecond
)

func (o RegisterOptions) withDefaults() RegisterOptions {
	if o.Attempts == 0 {
		o.Attempts = DefaultRegisterAttempts
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = DefaultRegisterBaseDelay
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = DefaultRegisterMaxDelay
	}
	return o
}

// RegisterAny announces a stage to the first reachable parent on addrs,
// retrying with exponential backoff and jitter across passes. A stage that
// boots before its controller therefore registers as soon as the controller
// comes up, and an orphaned child walks the list until it finds the current
// leader. Definitive rejections (any remote error other than not-leader or
// overload) abort the retry loop: the parent answered and said no.
func RegisterAny(ctx context.Context, network transport.Network, addrs []string, info Info, opts RegisterOptions) (*wire.RegisterAck, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("stage %d: register: no parent addresses", info.ID)
	}
	opts = opts.withDefaults()
	delay := opts.BaseDelay
	var lastErr error
	for attempt := 0; opts.Attempts < 0 || attempt < opts.Attempts; attempt++ {
		if attempt > 0 {
			if err := sleepJittered(ctx, delay); err != nil {
				return nil, fmt.Errorf("stage %d: register: %w (last error: %v)", info.ID, err, lastErr)
			}
			if delay *= 2; delay > opts.MaxDelay {
				delay = opts.MaxDelay
			}
		}
		for _, addr := range addrs {
			ack, err := registerOnce(ctx, network, addr, info)
			if err == nil {
				return ack, nil
			}
			lastErr = err
			if !retryableRegisterError(err) {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, lastErr
			}
		}
	}
	return nil, lastErr
}

// registerOnce dials one parent, sends one Register, and closes the
// connection. The transient connection mirrors real deployments, where
// registration must not consume one of the controller's scarce long-lived
// connection slots.
func registerOnce(ctx context.Context, network transport.Network, addr string, info Info) (*wire.RegisterAck, error) {
	cli, err := rpc.Dial(ctx, network, addr, rpc.DialOptions{})
	if err != nil {
		return nil, fmt.Errorf("stage %d: register dial %s: %w", info.ID, addr, err)
	}
	defer cli.Close()
	resp, err := cli.Call(ctx, &wire.Register{
		Role:   wire.RoleStage,
		ID:     info.ID,
		JobID:  info.JobID,
		Weight: info.Weight,
		Addr:   info.Addr,
	})
	if err != nil {
		return nil, fmt.Errorf("stage %d: register at %s: %w", info.ID, addr, err)
	}
	ack, ok := resp.(*wire.RegisterAck)
	if !ok {
		return nil, fmt.Errorf("stage %d: register at %s: unexpected %s", info.ID, addr, resp.Type())
	}
	return ack, nil
}

// retryableRegisterError classifies registration failures: transport and
// dial errors are transient (the parent may still be booting), as are
// not-leader (an unpromoted standby) and overload rejections. Every other
// remote error is a definitive rejection.
func retryableRegisterError(err error) bool {
	var er *wire.ErrorReply
	if !errors.As(err, &er) {
		return true
	}
	return er.Code == wire.CodeNotLeader || er.Code == wire.CodeOverload
}

// sleepJittered sleeps for a uniformly jittered duration in [d/2, d].
func sleepJittered(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	wait := d/2 + time.Duration(rand.Int63n(int64(d)/2+1))
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// watchdog is the re-homing side of a stage configured with a parent
// address list. The wheel ticks it every ParentTimeout/4: when no parent has
// contacted the stage for ParentTimeout, the stage assumes its parent died
// and re-registers with the first reachable address — typically the
// promoted standby — so control cycles resume without manual re-adoption.
// A registration runs on a goroutine of its own, one at a time; ticks skip
// while it is in flight. Close cancels ctx, which ends one in progress.
type watchdog struct {
	task
	v           *Virtual
	ctx         context.Context
	cancel      context.CancelFunc
	registering atomic.Bool
}

// newWatchdog starts v's initial registration — the stage may boot before
// its controller, so it retries until a parent appears or the stage
// closes — and puts the watchdog on the wheel.
func newWatchdog(v *Virtual) *watchdog {
	d := &watchdog{v: v}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	d.task = task{every: max(v.cfg.ParentTimeout/4, 1), fire: d.tick}
	d.register(false)
	stageWheel.join(&d.task, v.cfg.ID)
	return d
}

// tick runs one watchdog check on the wheel's goroutine.
func (d *watchdog) tick() {
	if d.registering.Load() || time.Since(d.v.fence.contact()) < d.v.cfg.ParentTimeout {
		return
	}
	d.register(true)
}

// register runs one registration off the wheel.
func (d *watchdog) register(rehoming bool) {
	d.registering.Store(true)
	d.v.bg.Add(1)
	go func() {
		defer d.v.bg.Done()
		d.v.registerParents(d.ctx, rehoming)
		d.registering.Store(false)
	}()
}

// registerParents walks the parent list until a registration succeeds,
// adopting the acknowledged leadership epoch as the new fencing floor.
func (v *Virtual) registerParents(ctx context.Context, rehoming bool) {
	ack, err := RegisterAny(ctx, v.cfg.Network, v.cfg.Parents, v.Info(), RegisterOptions{
		Attempts:  -1, // until ctx is done or a parent answers definitively
		BaseDelay: v.cfg.ParentTimeout / 8,
		MaxDelay:  v.cfg.ParentTimeout,
	})
	if err != nil {
		return
	}
	v.fence.adopt(ack.Epoch)
	v.fence.touch()
	if rehoming {
		v.mu.Lock()
		v.reRegistrations++
		v.mu.Unlock()
	}
}
