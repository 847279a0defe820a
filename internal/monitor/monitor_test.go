package monitor

import (
	"sync"
	"testing"
	"time"
)

func TestReadProcStat(t *testing.T) {
	st := ReadProcStat()
	if st.RSSBytes == 0 {
		t.Error("RSSBytes = 0; even the fallback should report heap usage")
	}
	if st.When.IsZero() {
		t.Error("When is zero")
	}
}

func TestProcStatCPUAdvances(t *testing.T) {
	a := ReadProcStat()
	// Burn CPU long enough for at least one 10ms kernel tick.
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	_ = x
	b := ReadProcStat()
	if b.CPUTime < a.CPUTime {
		t.Errorf("CPU time went backwards: %v -> %v", a.CPUTime, b.CPUTime)
	}
}

func TestProcessMonitor(t *testing.T) {
	var m ProcessMonitor
	m.Start()
	deadline := time.Now().Add(60 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	_ = x
	u := m.Stop()
	if u.Elapsed < 50*time.Millisecond {
		t.Errorf("Elapsed = %v, want >= ~60ms", u.Elapsed)
	}
	if u.MemBytes == 0 {
		t.Error("MemBytes = 0")
	}
	if u.CPUPercent < 0 {
		t.Errorf("CPUPercent = %g", u.CPUPercent)
	}
}

func TestUsageMemGB(t *testing.T) {
	u := Usage{MemBytes: 3_520_000_000}
	if got := u.MemGB(); got != 3.52 {
		t.Errorf("MemGB = %g, want 3.52", got)
	}
}

func TestCPUMeterConcurrent(t *testing.T) {
	var c CPUMeter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Busy(); got != 800*time.Millisecond {
		t.Errorf("Busy = %v, want 800ms", got)
	}
}
