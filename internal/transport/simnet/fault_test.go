package simnet

import (
	"context"
	"testing"
	"time"
)

func TestKillConnsSeversButAllowsRedial(t *testing.T) {
	n := New(fastCfg())
	client, server := pair(t, n)
	defer client.Close()
	defer server.Close()

	n.Host("server").KillConns()
	buf := make([]byte, 1)
	if _, err := client.Read(buf); err == nil {
		t.Error("read on killed connection succeeded")
	}
	if isPartitioned(n.Host("server")) {
		t.Error("KillConns partitioned the host")
	}
	// Unlike a partition, fresh dials work immediately.
	c2, s2 := pair(t, n)
	c2.Close()
	s2.Close()
}

// Closing a listener must sever connections still waiting in its backlog:
// otherwise the dialer holds a conn no one will ever accept and blocks
// forever on its first read.
func TestListenerCloseSeversBacklog(t *testing.T) {
	n := New(fastCfg())
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	c, err := n.Host("client").Dial(ctx, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close() // the conn was never accepted

	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := c.Read(buf)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read on stranded backlog conn succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read on stranded backlog conn hung")
	}
}

func TestFlapScheduleShape(t *testing.T) {
	hosts := []string{"a", "b"}
	evs := FlapSchedule(hosts, 10*time.Millisecond, 5*time.Millisecond, 20*time.Millisecond, 2)
	if len(evs) != len(hosts)*2*2 {
		t.Fatalf("events = %d, want %d", len(evs), len(hosts)*2*2)
	}
	heals := make(map[string]time.Duration)
	for _, ev := range evs {
		switch ev.Action {
		case FaultPartition:
			if down, ok := heals[ev.Host]; ok && ev.At < down {
				t.Errorf("host %s partitioned at %v before previous heal at %v", ev.Host, ev.At, down)
			}
		case FaultHeal:
			heals[ev.Host] = ev.At
		default:
			t.Errorf("unexpected action %v", ev.Action)
		}
	}
	if len(FlapSchedule(nil, 0, time.Millisecond, time.Millisecond, 1)) != 0 {
		t.Error("empty host list produced events")
	}
}

func TestScheduleAppliesEventsInOrder(t *testing.T) {
	n := New(fastCfg())
	h := n.Host("victim")
	s := n.Schedule([]FaultEvent{
		// Deliberately out of order: Schedule must sort by At.
		{At: 30 * time.Millisecond, Host: "victim", Action: FaultHeal},
		{At: 0, Host: "victim", Action: FaultPartition},
	})
	defer s.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for !isPartitioned(h) {
		if time.Now().After(deadline) {
			t.Fatal("partition event never applied")
		}
		time.Sleep(time.Millisecond)
	}
	s.Wait()
	if isPartitioned(h) {
		t.Error("heal event not applied")
	}
}

func TestScheduleStopHealsOutstandingPartitions(t *testing.T) {
	n := New(fastCfg())
	h := n.Host("victim")
	s := n.Schedule([]FaultEvent{
		{At: 0, Host: "victim", Action: FaultPartition},
		{At: time.Hour, Host: "victim", Action: FaultHeal},
	})
	deadline := time.Now().Add(5 * time.Second)
	for !isPartitioned(h) {
		if time.Now().After(deadline) {
			t.Fatal("partition event never applied")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if isPartitioned(h) {
		t.Error("Stop left the host partitioned")
	}
}

func TestScheduleKillConnsAction(t *testing.T) {
	n := New(fastCfg())
	client, server := pair(t, n)
	defer client.Close()
	defer server.Close()

	s := n.Schedule([]FaultEvent{{At: 0, Host: "server", Action: FaultKillConns}})
	s.Wait()
	buf := make([]byte, 1)
	if _, err := client.Read(buf); err == nil {
		t.Error("connection survived FaultKillConns")
	}
	if isPartitioned(n.Host("server")) {
		t.Error("FaultKillConns must not partition the host")
	}
	// Dialing still works; reuse the context-based Dial directly.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := n.Host("client").Dial(ctx, l.Addr().String())
	if err != nil {
		t.Fatalf("dial after kill-conns: %v", err)
	}
	c.Close()
}
