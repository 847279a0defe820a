package controller

import (
	"context"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cyclemem"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// FanOutMode selects how a controller's collect and enforce phases dispatch
// child requests.
type FanOutMode int

const (
	// FanOutPipelined streams every child request back-to-back over the
	// per-child connections and harvests responses as they arrive. No
	// goroutine parks per call and per-call state comes from pools, so
	// dispatch cost per child is a frame encode plus a write. This is the
	// default.
	FanOutPipelined FanOutMode = iota
	// FanOutBlocking reproduces the paper prototype's bounded thread pool:
	// one blocked goroutine per in-flight call, at most FanOut of them. The
	// paper-reproduction presets select it explicitly, since the bounded
	// pool is what makes per-child latency accumulate linearly (Fig. 4).
	FanOutBlocking
)

// String names the mode for logs and experiment reports.
func (m FanOutMode) String() string {
	if m == FanOutBlocking {
		return "blocking"
	}
	return "pipelined"
}

// fanOutOpts carries one phase's dispatch parameters.
type fanOutOpts struct {
	mode FanOutMode
	// par bounds concurrency in blocking mode (ignored when pipelined).
	par int
	// timeout is the per-call budget; in pipelined mode it becomes the
	// phase deadline, so every child still gets at least timeout from its
	// request being issued.
	timeout time.Duration
	// gauge, if non-nil, tracks in-flight calls for this phase.
	gauge *telemetry.Gauge
	// arena and calls, when both set, draw the pipelined harvest's call-
	// handle slots from the controller's cycle arena instead of allocating
	// per phase. The slots are dead once the harvest loop finishes, which
	// is before the cycle ends — exactly the arena's lifetime contract.
	arena *cyclemem.Arena
	calls *cyclemem.Slab[*rpc.Call]
}

// takeCalls returns n nil call slots, arena-backed when configured.
func (o *fanOutOpts) takeCalls(n int) []*rpc.Call {
	if o.arena != nil && o.calls != nil {
		return o.calls.Take(o.arena, n)
	}
	return make([]*rpc.Call, n)
}

// fanOutCalls is the one dispatch engine behind every fan-out. It issues one
// call per child, waits for it under the mode's deadline, charges the outcome
// to the breaker and error accounting, and then hands it to onDone, which may
// be nil. issue starts child i's call under ctx (Go or GoShared on its client:
// issuing never blocks, the deadline applies to the wait) and returns the
// handle; a nil handle skips the child. In blocking mode issue and onDone run
// concurrently from up to par scatter workers; in pipelined mode they run
// sequentially on the calling goroutine, in child order. Callers must keep
// both safe for the blocking case (index-disjoint writes or their own
// locking). Once ctx is cancelled no further calls are issued.
//
// The role's CPU meter is charged with the time spent issuing — encoding
// and writing the requests — from one clock pair around the pipelined
// issue loop, or around each issue in blocking mode; the rpc client reads
// no clock for it.
func (k *stageCore) fanOutCalls(ctx context.Context, o fanOutOpts, children []*child,
	issue func(ctx context.Context, i int) *rpc.Call,
	onDone func(i int, resp wire.Message, err error)) {
	n := len(children)
	if n == 0 {
		return
	}
	if o.mode == FanOutBlocking {
		rpc.Scatter(ctx, n, o.par, func(i int) {
			start := time.Now()
			call := issue(ctx, i)
			k.busy(start)
			if call == nil {
				return
			}
			if o.gauge != nil {
				o.gauge.Enter()
				defer o.gauge.Exit()
			}
			cctx, cancel := context.WithTimeout(ctx, o.timeout)
			resp, err := call.Wait(cctx)
			cancel()
			k.accountCall(ctx, children[i], err)
			if onDone != nil {
				onDone(i, resp, err)
			}
		})
		return
	}

	// Pipelined: issue every call back-to-back, then harvest the completion
	// handles in issue order — phase latency is the slowest child, not the
	// sum over a bounded pool. One deadline covers the whole phase in place
	// of a context per call.
	pctx, cancel := context.WithTimeout(ctx, o.timeout)
	defer cancel()
	calls := o.takeCalls(n)
	start := time.Now()
	for i := range children {
		if ctx.Err() != nil {
			break // cancelled mid-fan-out: stop issuing
		}
		if calls[i] = issue(ctx, i); calls[i] != nil && o.gauge != nil {
			o.gauge.Enter()
		}
	}
	k.busy(start)
	for i, call := range calls {
		if call == nil {
			continue
		}
		resp, err := call.Wait(pctx)
		if o.gauge != nil {
			o.gauge.Exit()
		}
		k.accountCall(ctx, children[i], err)
		if onDone != nil {
			onDone(i, resp, err)
		}
	}
}
