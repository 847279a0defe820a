package simnet

import (
	"context"
	"sort"
	"time"
)

// FaultAction is one kind of scripted fault.
type FaultAction int

// Fault actions applicable to a host.
const (
	// FaultPartition isolates the host: established connections are
	// severed and future dials from/to it fail until FaultHeal.
	FaultPartition FaultAction = iota
	// FaultHeal ends a partition; subsequent dials succeed again.
	FaultHeal
	// FaultKillConns severs the host's established connections once,
	// without partitioning it (dials keep working).
	FaultKillConns
	// FaultCrash kills the host for good: established connections are
	// severed and future dials fail, like FaultPartition, but the crash is
	// permanent — Stop does NOT heal it. Use it to model a process that
	// dies mid-run (e.g. a primary controller in a failover experiment);
	// an explicit FaultHeal later models a restart.
	FaultCrash
)

// String renders the action for logs.
func (a FaultAction) String() string {
	switch a {
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultKillConns:
		return "kill-conns"
	case FaultCrash:
		return "crash"
	default:
		return "unknown"
	}
}

// FaultEvent is one entry in a fault schedule: at offset At from schedule
// start, apply Action to the named Host.
type FaultEvent struct {
	// At is the offset from schedule start at which the event fires.
	At time.Duration
	// Host names the target host (created on first use if absent).
	Host string
	// Action is the fault to apply.
	Action FaultAction
}

// FlapSchedule builds a schedule that partitions each named host at its
// staggered offset and heals it after downFor, repeating every period for
// the given number of rounds. Hosts are staggered evenly across the period
// so the whole set is never down at once. It is a convenience for chaos
// experiments that want "X% of hosts flapping".
func FlapSchedule(hosts []string, start, downFor, period time.Duration, rounds int) []FaultEvent {
	var events []FaultEvent
	if len(hosts) == 0 || rounds <= 0 {
		return events
	}
	stagger := period / time.Duration(len(hosts))
	for r := 0; r < rounds; r++ {
		base := start + time.Duration(r)*period
		for i, h := range hosts {
			down := base + time.Duration(i)*stagger
			events = append(events, FaultEvent{At: down, Host: h, Action: FaultPartition})
			events = append(events, FaultEvent{At: down + downFor, Host: h, Action: FaultHeal})
		}
	}
	return events
}

// FaultSchedule replays a list of FaultEvents against the network's hosts
// in real time. Create one with Net.Schedule, then Stop or Wait it.
type FaultSchedule struct {
	net    *Net
	cancel context.CancelFunc
	done   chan struct{}
}

// Schedule starts replaying events against the network. Events are applied
// in At order from the moment Schedule returns; out-of-order input is
// sorted. The returned schedule runs until all events fired or Stop is
// called. Stopping mid-run heals every host the schedule partitioned and
// did not yet heal, so a test teardown cannot leak a partition.
func (n *Net) Schedule(events []FaultEvent) *FaultSchedule {
	evs := make([]FaultEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	ctx, cancel := context.WithCancel(context.Background())
	s := &FaultSchedule{net: n, cancel: cancel, done: make(chan struct{})}
	go s.run(ctx, evs)
	return s
}

func (s *FaultSchedule) run(ctx context.Context, events []FaultEvent) {
	defer close(s.done)
	start := time.Now()
	down := make(map[string]bool) // hosts this schedule partitioned
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for _, ev := range events {
		if wait := ev.At - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				s.healAll(down)
				return
			}
		} else if ctx.Err() != nil {
			s.healAll(down)
			return
		}
		h := s.net.Host(ev.Host)
		switch ev.Action {
		case FaultPartition:
			h.SetPartitioned(true)
			down[ev.Host] = true
		case FaultHeal:
			h.SetPartitioned(false)
			delete(down, ev.Host)
		case FaultKillConns:
			h.KillConns()
		case FaultCrash:
			// Permanent: deliberately not tracked in down, so Stop's
			// healAll leaves the host dead.
			h.SetPartitioned(true)
			h.KillConns()
		}
	}
}

// healAll clears partitions the schedule introduced but never healed.
func (s *FaultSchedule) healAll(down map[string]bool) {
	for name := range down {
		s.net.Host(name).SetPartitioned(false)
	}
}

// Wait blocks until every event has fired (or the schedule was stopped).
func (s *FaultSchedule) Wait() { <-s.done }

// Stop aborts the schedule, healing any partition it introduced and did
// not yet heal, and waits for the runner to exit.
func (s *FaultSchedule) Stop() {
	s.cancel()
	<-s.done
}
