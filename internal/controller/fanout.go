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
// child requests: how many issuers split the children, and how many calls
// each keeps in flight. Both modes run the one issue loop of fanOutCalls.
type FanOutMode int

const (
	// FanOutPipelined splits the children among up to GOMAXPROCS issuers,
	// each of which streams its requests back-to-back over the per-child
	// connections and then harvests the replies: its window is unbounded,
	// so phase latency is the slowest child's. This is the default.
	FanOutPipelined FanOutMode = iota
	// FanOutBlocking reproduces the paper prototype's bounded thread pool:
	// FanOut issuers, each with one call in flight, so a phase over more
	// children than FanOut runs in waves. The paper-reproduction presets
	// select it: the bound on calls in flight is what shapes Fig. 5 once
	// the global has more aggregators than FanOut.
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
	// issuers is how many contiguous ranges the children are split into,
	// and window how many calls each range's issuer keeps in flight: zero
	// is unbounded (pipelined), 1 is the prototype's pool (blocking).
	issuers, window int
	// timeout is the per-call budget. With an unbounded window it is the
	// phase deadline, so every child still gets at least timeout from its
	// request being issued; a windowed issuer re-arms it per run of issues,
	// which with a window of 1 is per call.
	timeout time.Duration
	// gauge tracks in-flight calls for this phase: each run of issues is
	// charged once it is issued and released once it is harvested.
	gauge *telemetry.Gauge
	// arena and calls, when set, draw the call-handle slots from the
	// controller's cycle arena instead of allocating per phase. The slots
	// are dead once every issuer has harvested, which is before the cycle
	// ends — exactly the arena's lifetime contract.
	arena *cyclemem.Arena
	calls *cyclemem.Slab[*rpc.Call]
}

// parallelIssueMin is the smallest child range worth a pipelined issuer of
// its own: below 2× this the pipelined issue loop runs on the calling
// goroutine. An issuer costs a goroutine start, a join and a wake-up on
// another processor per phase, tens of microseconds together. Issuing one
// call costs a few microseconds: an encode and a write, and on an untimed
// simnet the stage's handling and the reply's decode inside that write. 512
// calls are a millisecond or more of work, so an issuer's start-up stays
// within a few percent of its range even on the cheapest path. A windowed
// issuer spends its time waiting, not issuing, so any range is worth one.
const parallelIssueMin = 512

// takeCalls returns n nil call slots, arena-backed when configured.
func (o *fanOutOpts) takeCalls(n int) []*rpc.Call {
	if o.arena != nil {
		return o.calls.Take(o.arena, n)
	}
	return make([]*rpc.Call, n)
}

// fanOutCalls is the one dispatch engine behind every fan-out. It issues one
// call per child, waits for it under its deadline, charges the outcome to
// the breaker and error accounting, and then hands it to onDone, which may
// be nil. issue starts child i's call under ctx (Go or GoShared on its
// client: issuing never blocks, the deadline applies to the wait) and
// returns the handle and a cursor, next, that the same issuer passes back as
// at with its range's next child (each issuer starts at zero). A nil handle
// skips the child, and suppressed marks a skip that is an enforce the caller
// suppressed, which the pipeline stats count: each issuer adds its range's
// count once.
//
// The children are split into o.issuers contiguous ranges. Each range's
// issuer issues a run of up to o.window calls, then waits for, accounts and
// hands to onDone the calls of that run in child order, and issues the next
// run, while the other issuers do the same with theirs. Callers must keep
// issue and onDone safe under concurrency (index-disjoint writes or their
// own locking). Once ctx is cancelled no further calls are issued; those
// already issued are still harvested.
//
// The role's CPU meter is charged with the time spent issuing — encoding
// and writing the requests, and on an untimed simnet the stages' handling,
// which runs inside the write — from one clock pair per run; the rpc client
// reads no clock for it.
func (k *stageCore) fanOutCalls(ctx context.Context, o fanOutOpts, children []*child,
	issue func(ctx context.Context, i, at int) (call *rpc.Call, suppressed bool, next int),
	onDone func(i int, resp wire.Message, err error)) {
	n := len(children)
	if n == 0 {
		return
	}
	wait, minRange := ctx, 1
	if o.window == 0 {
		// One deadline covers the whole phase in place of one per call.
		pctx, cancel := context.WithTimeout(ctx, o.timeout)
		defer cancel()
		wait, minRange = pctx, parallelIssueMin
	}
	calls := o.takeCalls(n)
	cyclemem.ParallelFor(n, o.issuers, minRange, func(lo, hi int) {
		// deadline is a windowed issuer's per-run deadline. It is reused
		// while it is stopped before it fires, and replaced once it fired:
		// a fired timer may still deliver to its channel after Stop.
		var deadline *time.Timer
		var expired <-chan time.Time
		supp, at := 0, 0
		for i := lo; i < hi && ctx.Err() == nil; {
			start := time.Now()
			if o.window > 0 {
				if deadline == nil {
					deadline = time.NewTimer(o.timeout)
					expired = deadline.C
				} else {
					deadline.Reset(o.timeout)
				}
			}
			first, issued := i, 0
			for ; i < hi && (o.window == 0 || issued < o.window); i++ {
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
			o.gauge.Add(int64(issued))
			for j := first; j < i; j++ {
				if calls[j] == nil {
					continue
				}
				resp, err := calls[j].WaitDeadline(wait, expired)
				k.accountCall(ctx, children[j], err)
				if onDone != nil {
					onDone(j, resp, err)
				}
			}
			o.gauge.Add(int64(-issued))
			if deadline != nil && !deadline.Stop() {
				deadline = nil
			}
		}
		if supp > 0 {
			k.pipe.AddSuppressedEnforces(uint64(supp))
		}
	})
}
