package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestFleetFootprintPerStage guards what one more stage costs a simulated
// fleet at rest. The three simnet benchmark workloads hold 10,000 stages in
// one process, so a per-listener or per-client allocation of a few tens of
// kilobytes is hundreds of megabytes there (a 32 KB accept-queue channel per
// listener once was 317 MB of a 488 MB heap). A stage costs about 5.35 KB
// today; the bound is 5,840 B, so a few hundred bytes more per stage fail
// it. Each bound fell by about 300 B when a child's connection stopped
// being wrapped in a redialing client with its own channel.
//
// Goroutines are counted per fleet, not per stage: a stage on an untimed
// simnet costs none. Its server answers each request inside the
// controller's write, and the controller reads each reply inside the
// stage's write, so a fleet adds only the handful of goroutines its
// controllers run, whatever its size. Each of these was once one per
// stage: the stage's serving goroutine (before stage handlers ran on the
// writer's goroutine), 10,000 parked stacks and a wake-up per call; the
// controller's read loop for it (before the stage's response writes handed
// their bytes to the controller's reader), 10,000 more and a wake-up per
// reply; an accept loop (before simnet listeners handed connections to the
// server), and the server's separate handler goroutine. A pushing stage and
// a stage with a parent list run their push decisions and parent watchdogs
// on the process-wide stage wheel, not on goroutines of their own: before
// the wheel, an incremental stage cost a goroutine (its push loop) and a
// sharded stage with standbys two more (its re-home loop and that loop's
// cancel watcher).
//
// The flat-incremental fleet's heap bound is 6,350 B (5.65 KB measured) and
// the sharded fleet's 7,930 B (6.4-7.7 KB measured, the most under -race):
// their controllers keep more per child.
func TestFleetFootprintPerStage(t *testing.T) {
	const (
		stages = 1000
		// maxGoroutinesAdded bounds a whole fleet's goroutines: its
		// controllers' (0, 1 and 5 here; 9 under -race, where the sharded
		// fleet's asynchronous exits lag), never one per stage.
		maxGoroutinesAdded = 16
	)
	// pinned keeps every wall-clock timer of the fleet from firing while it
	// is measured, so the fleet is at rest.
	const pinned = time.Hour
	fleets := []struct {
		name        string
		cfg         Config
		maxPerStage int64
	}{
		{"flat", Config{Topology: Flat}, 5840},
		{"flat-incremental", Config{
			Topology: Flat, Incremental: true,
			PushInterval: pinned, PushFloor: pinned, IncrementalFloor: pinned, StaleAfter: pinned,
		}, 6350},
		{"sharded-standby-incremental", Config{
			Topology: Flat, Shards: 4, Standbys: 1, Incremental: true,
			PushInterval: pinned, PushFloor: pinned, IncrementalFloor: pinned, StaleAfter: pinned,
			ParentTimeout: pinned,
		}, 7930},
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, f := range fleets {
		t.Run(f.name, func(t *testing.T) {
			// Two collections empty the sync.Pool victim caches, so buffers
			// an earlier fleet pooled are not in the baseline, to be freed
			// while this fleet is measured.
			runtime.GC()
			before, goBefore := heap(), runtime.NumGoroutine()
			cfg := f.cfg
			cfg.Stages, cfg.Net = stages, fastNet()
			c, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				c.Close()
				// The fleet's goroutines exit asynchronously. Wait for them,
				// so the next fleet's baseline holds neither them nor the
				// memory they keep alive.
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goBefore && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}()
			// One cycle, so every connection has carried a call and holds
			// the buffers it will keep.
			if _, err := c.RunControlCycle(context.Background()); err != nil {
				t.Fatalf("cycle: %v", err)
			}
			perStage := (heap() - before) / stages
			added := runtime.NumGoroutine() - goBefore
			t.Logf("%d-stage %s fleet at rest: %d B of heap per stage, %d goroutines added", stages, f.name, perStage, added)
			if perStage > f.maxPerStage {
				t.Errorf("a stage costs %d B of heap at rest, want <= %d", perStage, f.maxPerStage)
			}
			if added > maxGoroutinesAdded {
				t.Errorf("the fleet added %d goroutines, want <= %d: a stage must cost none", added, maxGoroutinesAdded)
			}
		})
	}
}
