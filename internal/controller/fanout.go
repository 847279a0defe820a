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
	// gauge, if non-nil, tracks in-flight calls for this phase: per call in
	// blocking mode, per issuer range in pipelined mode (charged once the
	// range is issued, released once it is harvested).
	gauge *telemetry.Gauge
	// arena and calls, when both set, draw the pipelined harvest's call-
	// handle slots from the controller's cycle arena instead of allocating
	// per phase. The slots are dead once the harvest loop finishes, which
	// is before the cycle ends — exactly the arena's lifetime contract.
	arena *cyclemem.Arena
	calls *cyclemem.Slab[*rpc.Call]
}

// parallelIssueMin is the smallest child range worth an issuer of its own:
// below 2× this the pipelined issue loop runs on the calling goroutine. An
// issuer costs a goroutine start, a join and a wake-up on another processor
// per phase, tens of microseconds together. Issuing one call costs a few
// microseconds: an encode and a write, and on an untimed simnet the stage's
// handling and the reply's decode inside that write. 512 calls are a
// millisecond or more of work, so an issuer's start-up stays within a few
// percent of its range even on the cheapest path.
const parallelIssueMin = 512

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
// handle and a cursor, next, that the same issuer passes back as at with its
// range's next child (each issuer starts at zero). A nil handle skips the
// child, and suppressed marks a skip that is an enforce the caller
// suppressed, which the pipeline stats count: each pipelined issuer adds its
// range's count once. In blocking mode issue and onDone run concurrently from
// up to par scatter workers. In pipelined mode up to GOMAXPROCS issuers each
// take a contiguous range of children: an issuer issues its range, then
// waits for, accounts and hands to onDone the calls it issued, in child order
// within its range, while the other issuers do the same with theirs. Callers
// must keep both safe under concurrency (index-disjoint writes or their own
// locking). Once ctx is cancelled no further calls are issued; those already
// issued are still harvested.
//
// The role's CPU meter is charged with the time spent issuing — encoding
// and writing the requests, and on an untimed simnet the stages' handling,
// which runs inside the write — from one clock pair per pipelined issuer,
// or around each issue in blocking mode; the rpc client reads no clock for
// it.
func (k *stageCore) fanOutCalls(ctx context.Context, o fanOutOpts, children []*child,
	issue func(ctx context.Context, i, at int) (call *rpc.Call, suppressed bool, next int),
	onDone func(i int, resp wire.Message, err error)) {
	n := len(children)
	if n == 0 {
		return
	}
	if o.mode == FanOutBlocking {
		rpc.Scatter(ctx, n, o.par, func(i int) {
			start := time.Now()
			call, supp, _ := issue(ctx, i, 0)
			k.busy(start)
			if call == nil {
				if supp {
					k.pipe.AddSuppressedEnforces(1)
				}
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

	// Pipelined: each issuer issues its range back-to-back, then harvests
	// that range's completion handles in child order while the state they
	// touch is still warm on its core — phase latency is the slowest child,
	// not the sum over a bounded pool. One deadline covers the whole phase in
	// place of a context per call.
	pctx, cancel := context.WithTimeout(ctx, o.timeout)
	defer cancel()
	calls := o.takeCalls(n)
	cyclemem.ParallelFor(n, parallelIssueMin, func(lo, hi int) {
		start := time.Now()
		issued, supp, at := 0, 0, 0
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				break // cancelled mid-fan-out: stop issuing, harvest what was
			}
			var s bool
			if calls[i], s, at = issue(ctx, i, at); calls[i] != nil {
				issued++
			} else if s {
				supp++
			}
		}
		k.busy(start)
		if supp > 0 {
			k.pipe.AddSuppressedEnforces(uint64(supp))
		}
		if o.gauge != nil {
			o.gauge.Add(int64(issued))
			defer o.gauge.Add(int64(-issued))
		}
		for i := lo; i < hi; i++ {
			if calls[i] == nil {
				continue
			}
			resp, err := calls[i].Wait(pctx)
			k.accountCall(ctx, children[i], err)
			if onDone != nil {
				onDone(i, resp, err)
			}
		}
	})
}
