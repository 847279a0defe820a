package controller

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestQuorumFailover kills the primary of a three-controller quorum and
// checks that exactly one standby wins the election, promotes with a bumped
// epoch, adopts the stage fleet, and renews the loser's lease (ending its
// candidacy) — the quorum survives any single node failure with epoch
// monotonicity.
func TestQuorumFailover(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{1000, 100})

	// Fixed ports let every controller know its peers' addresses up front.
	const port = ":41000"
	a1, a2, a3 := "ctrl-1"+port, "ctrl-2"+port, "ctrl-3"+port

	base := GlobalConfig{
		ListenAddr:   port,
		Capacity:     wire.Rates{4000, 400},
		LeaseTimeout: 150 * time.Millisecond,
		SyncInterval: 25 * time.Millisecond,
		CallTimeout:  time.Second,
	}

	scfg2 := base
	scfg2.Network = n.Host("ctrl-2")
	scfg2.ID = 2
	scfg2.Standby = true
	scfg2.StandbyAddrs = []string{a1, a3}
	sb2, err := StartGlobal(scfg2)
	if err != nil {
		t.Fatalf("standby 2: %v", err)
	}
	t.Cleanup(func() { sb2.Close() })

	scfg3 := base
	scfg3.Network = n.Host("ctrl-3")
	scfg3.ID = 3
	scfg3.Standby = true
	scfg3.StandbyAddrs = []string{a1, a2}
	sb3, err := StartGlobal(scfg3)
	if err != nil {
		t.Fatalf("standby 3: %v", err)
	}
	t.Cleanup(func() { sb3.Close() })

	gcfg := base
	gcfg.Network = n.Host("ctrl-1")
	gcfg.ID = 1
	gcfg.Epoch = 1
	gcfg.StandbyAddrs = []string{a2, a3}
	g, err := StartGlobal(gcfg)
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			g.Close()
		}
	})

	ctx := context.Background()
	for _, v := range stages {
		if err := g.AddStage(ctx, v.Info()); err != nil {
			t.Fatalf("AddStage: %v", err)
		}
	}
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatalf("RunCycle: %v", err)
	}

	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()
	done2 := make(chan error, 1)
	done3 := make(chan error, 1)
	go func() { done2 <- sb2.Run(runCtx, 25*time.Millisecond) }()
	go func() { done3 <- sb3.Run(runCtx, 25*time.Millisecond) }()

	// Wait for replication to reach both standbys.
	deadline := time.Now().Add(5 * time.Second)
	for sb2.Epoch() < 1 || sb3.Epoch() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("standbys never mirrored the primary: epochs %d, %d", sb2.Epoch(), sb3.Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}

	closed = true
	g.Close() // primary dies

	// Exactly one standby must win the election.
	var winner, loser *Global
	deadline = time.Now().Add(5 * time.Second)
	for winner == nil {
		if time.Now().After(deadline) {
			t.Fatal("no standby promoted after primary death")
		}
		switch {
		case sb2.Promoted():
			winner, loser = sb2, sb3
		case sb3.Promoted():
			winner, loser = sb3, sb2
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if winner.Epoch() <= 1 {
		t.Fatalf("winner promoted without bumping the epoch: %d", winner.Epoch())
	}

	// The winner adopts the fleet and resumes cycles.
	deadline = time.Now().Add(5 * time.Second)
	for winner.NumChildren() < len(stages) {
		if time.Now().After(deadline) {
			t.Fatalf("winner adopted %d/%d stages", winner.NumChildren(), len(stages))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The loser must settle as the winner's mirror: lease renewed by the new
	// primary's StateSyncs, epoch adopted, never promoted.
	deadline = time.Now().Add(5 * time.Second)
	for loser.Epoch() != winner.Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("loser never adopted the winner's epoch: %d vs %d", loser.Epoch(), winner.Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // > LeaseTimeout: a renewed lease keeps it passive
	if loser.Promoted() {
		t.Fatal("both standbys promoted: split brain")
	}
	if got := winner.Stats().Faults.Elections; got < 1 {
		t.Fatalf("winner ran %d elections, want >= 1", got)
	}
	if got := loser.Stats().Faults.VotesGranted; got < 1 {
		t.Fatalf("loser granted %d votes, want >= 1", got)
	}

	stopRun()
	<-done2
	<-done3
}

// TestVoteGrantRules drives handleVoteRequest directly through every denial
// rule: non-monotonic epochs, a current lease, and a candidate whose mirror
// lags the voter's.
func TestVoteGrantRules(t *testing.T) {
	n := fastNet()
	cfg := GlobalConfig{
		Network:      n.Host("voter"),
		ListenAddr:   ":0",
		ID:           7,
		Standby:      true,
		StandbyAddrs: []string{"peer-a:1", "peer-b:1"},
		LeaseTimeout: 30 * time.Millisecond,
	}
	sb, err := StartGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	time.Sleep(40 * time.Millisecond) // let the initial lease lapse

	grant := func(req *wire.VoteRequest) *wire.LeaseGrant {
		t.Helper()
		resp, err := sb.handleVoteRequest(req)
		if err != nil {
			t.Fatalf("handleVoteRequest: %v", err)
		}
		lg, ok := resp.(*wire.LeaseGrant)
		if !ok {
			t.Fatalf("got %T, want *wire.LeaseGrant", resp)
		}
		if lg.VoterID != 7 {
			t.Fatalf("grant names voter %d, want 7", lg.VoterID)
		}
		return lg
	}

	if lg := grant(&wire.VoteRequest{CandidateID: 9, Epoch: 3}); !lg.Granted {
		t.Fatalf("first vote at epoch 3 denied: %+v", lg)
	}
	// The same epoch can never be granted twice, and lower ones never at all.
	if lg := grant(&wire.VoteRequest{CandidateID: 8, Epoch: 3}); lg.Granted || lg.Epoch != 3 {
		t.Fatalf("epoch 3 re-granted or wrong floor echoed: %+v", lg)
	}
	if lg := grant(&wire.VoteRequest{CandidateID: 8, Epoch: 2}); lg.Granted {
		t.Fatalf("stale epoch 2 granted: %+v", lg)
	}

	// A granted vote restarts the voter's lease, so an immediate second
	// election — even at a fresh epoch — is denied.
	if lg := grant(&wire.VoteRequest{CandidateID: 8, Epoch: 4}); lg.Granted {
		t.Fatalf("vote granted while the previous winner's lease is current: %+v", lg)
	}
	time.Sleep(40 * time.Millisecond)

	// Mirror freshness: the voter has seen cycle 10, so a candidate whose
	// mirror stopped at cycle 5 would roll the fleet back.
	if _, err := sb.handleStateSync(&wire.StateSync{PrimaryID: 1, Epoch: 4, Cycle: 10}); err != nil {
		t.Fatalf("handleStateSync: %v", err)
	}
	time.Sleep(40 * time.Millisecond) // past the defaulted lease
	if lg := grant(&wire.VoteRequest{CandidateID: 8, Epoch: 5, Cycle: 5}); lg.Granted {
		t.Fatalf("vote granted to a candidate with a stale mirror: %+v", lg)
	}
	if lg := grant(&wire.VoteRequest{CandidateID: 8, Epoch: 5, Cycle: 10}); !lg.Granted {
		t.Fatalf("vote denied to an up-to-date candidate: %+v", lg)
	}

	st := sb.Stats().Faults
	if st.VotesGranted != 2 || st.VotesDenied != 4 {
		t.Fatalf("votes granted/denied = %d/%d, want 2/4", st.VotesGranted, st.VotesDenied)
	}
}

// TestActiveLeaderDeniesVotes checks the liveness rule: a controller that is
// actually leading refutes every candidacy, whatever the proposed epoch.
func TestActiveLeaderDeniesVotes(t *testing.T) {
	n := fastNet()
	g, err := StartGlobal(GlobalConfig{Network: n.Host("leader"), ID: 1, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	resp, err := g.handleVoteRequest(&wire.VoteRequest{CandidateID: 2, Epoch: 100})
	if err != nil {
		t.Fatal(err)
	}
	if lg := resp.(*wire.LeaseGrant); lg.Granted {
		t.Fatalf("active leader granted a vote: %+v", lg)
	}
}

// TestVotePersistedDurably checks that a granted vote survives the voter's
// restart: the promise is in the store before the grant leaves the process,
// so the epoch can never be double-granted across a crash.
func TestVotePersistedDurably(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	n := fastNet()
	sb, err := StartGlobal(GlobalConfig{
		Network:      n.Host("voter"),
		ListenAddr:   ":0",
		ID:           7,
		Standby:      true,
		StandbyAddrs: []string{"peer-a:1"},
		LeaseTimeout: 10 * time.Millisecond,
		Store:        st,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	resp, err := sb.handleVoteRequest(&wire.VoteRequest{CandidateID: 9, Epoch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.(*wire.LeaseGrant).Granted {
		t.Fatalf("vote denied: %+v", resp)
	}
	if err := sb.Close(); err != nil { // closes the store too
		t.Fatal(err)
	}

	st2, err := store.Open(store.Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Recovered().VotedEpoch; got != 5 {
		t.Fatalf("recovered voted epoch = %d, want 5", got)
	}
}

// TestRecoverFromStore cold-starts a controller from another's store: full
// membership and weights come back from disk, the epoch lands strictly above
// everything persisted, and the fleet accepts the recovered controller's
// first cycle.
func TestRecoverFromStore(t *testing.T) {
	dir := t.TempDir()
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{1000, 100})

	st, err := store.Open(store.Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := StartGlobal(GlobalConfig{
		Network:  n.Host("global"),
		ID:       1,
		Epoch:    1,
		Capacity: wire.Rates{4000, 400},
		Store:    st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, v := range stages {
		if err := g.AddStage(ctx, v.Info()); err != nil {
			t.Fatalf("AddStage: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("RunCycle %d: %v", i, err)
		}
	}
	oldEpoch := g.Epoch()
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := store.Open(store.Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := StartGlobal(GlobalConfig{
		Network:  n.Host("global-restart"),
		ID:       1,
		Capacity: wire.Rates{4000, 400},
		Store:    st2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g2.Close() })
	if err := g2.Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if g2.NumChildren() != len(stages) {
		t.Fatalf("recovered %d/%d children", g2.NumChildren(), len(stages))
	}
	if g2.Epoch() <= oldEpoch {
		t.Fatalf("recovered epoch %d does not exceed the crashed primary's %d", g2.Epoch(), oldEpoch)
	}
	cs := g2.Stats()
	if cs.Store == nil || cs.Store.Replay.Records == 0 {
		t.Fatalf("recovery stats missing replay evidence: %+v", cs.Store)
	}
	// The first cycle is a natural full pass that pushes the bumped epoch.
	if _, err := g2.RunCycle(ctx); err != nil {
		t.Fatalf("post-recovery RunCycle: %v", err)
	}
}

// TestDefaultedLeaseCounted checks the lease-fallback telemetry: a StateSync
// without a lease duration still renews using the local timeout, but the
// misconfiguration is counted.
func TestDefaultedLeaseCounted(t *testing.T) {
	n := fastNet()
	sb, err := StartGlobal(GlobalConfig{
		Network:      n.Host("standby"),
		ListenAddr:   ":0",
		Standby:      true,
		LeaseTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	for i := 0; i < 2; i++ {
		if _, err := sb.handleStateSync(&wire.StateSync{PrimaryID: 1, Epoch: uint64(i + 1)}); err != nil {
			t.Fatalf("handleStateSync %d: %v", i, err)
		}
	}
	if got := sb.Stats().Faults.DefaultedLeases; got != 2 {
		t.Fatalf("DefaultedLeases = %d, want 2", got)
	}
}

// TestRoleErrorsCarryContext checks that ErrStandby and ErrDeposed reach
// callers wrapped with the role and epoch that produced them, while staying
// matchable with errors.Is.
func TestRoleErrorsCarryContext(t *testing.T) {
	n := fastNet()
	sb, err := StartGlobal(GlobalConfig{
		Network:    n.Host("standby"),
		ListenAddr: ":0",
		Standby:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	_, err = sb.RunCycle(context.Background())
	if !errors.Is(err, ErrStandby) {
		t.Fatalf("standby RunCycle: %v, want ErrStandby", err)
	}
	if !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("ErrStandby lost its context: %q", err)
	}

	g, err := StartGlobal(GlobalConfig{Network: n.Host("primary"), Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	g.stepDown("test")
	_, err = g.RunCycle(context.Background())
	if !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed RunCycle: %v, want ErrDeposed", err)
	}
	if !strings.Contains(err.Error(), "epoch 3") {
		t.Fatalf("ErrDeposed lost its context: %q", err)
	}
}
