// Package monitor collects resource-usage metrics: CPU, memory, and network
// consumption, the quantities REMORA collected for the paper's Tables II-IV.
//
// Two complementary mechanisms are provided:
//
//   - ProcessMonitor samples the operating system's view of this process
//     (/proc on Linux, with a portable runtime fallback). This is what
//     cmd/sdsctl reports in real multi-host deployments, one process per
//     controller — exactly REMORA's vantage point.
//   - CPUMeter and transport.Meter provide per-component accounting for
//     single-process simulations, where multiple controller roles share one
//     process and the OS view cannot separate them. Controllers time their
//     own work sections and meter their own connections, so the experiment
//     harness can attribute usage per role as the paper's tables do.
package monitor

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
)

// ProcStat is a point-in-time reading of this process's resource usage.
type ProcStat struct {
	// CPUTime is cumulative user+system CPU time consumed.
	CPUTime time.Duration
	// RSSBytes is the resident set size.
	RSSBytes uint64
	// When is the sampling instant.
	When time.Time
}

// clockTicksPerSec is the kernel's USER_HZ; 100 on all supported Linux
// configurations.
const clockTicksPerSec = 100

// ReadProcStat samples the current process. On Linux it reads
// /proc/self/stat (utime+stime, rss); elsewhere, or if /proc is unavailable,
// it falls back to runtime heap statistics with zero CPU time.
func ReadProcStat() ProcStat {
	now := time.Now()
	if st, ok := readLinuxStat(); ok {
		st.When = now
		return st
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ProcStat{RSSBytes: ms.HeapInuse + ms.StackInuse, When: now}
}

// readLinuxStat parses /proc/self/stat fields 14 (utime), 15 (stime) and
// 24 (rss pages).
func readLinuxStat() (ProcStat, bool) {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return ProcStat{}, false
	}
	// The comm field (2) may contain spaces; skip past the closing paren.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 || i+2 > len(data) {
		return ProcStat{}, false
	}
	fields := bytes.Fields(data[i+2:])
	// After comm: field 3 is "state"; utime is overall field 14, which is
	// index 11 here; stime 12; rss 21.
	if len(fields) < 22 {
		return ProcStat{}, false
	}
	utime, err1 := strconv.ParseUint(string(fields[11]), 10, 64)
	stime, err2 := strconv.ParseUint(string(fields[12]), 10, 64)
	rssPages, err3 := strconv.ParseInt(string(fields[21]), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return ProcStat{}, false
	}
	ticks := utime + stime
	return ProcStat{
		CPUTime:  time.Duration(ticks) * time.Second / clockTicksPerSec,
		RSSBytes: uint64(rssPages) * uint64(os.Getpagesize()),
	}, true
}

// Usage is a digested resource-consumption report over an interval,
// matching the rows of the paper's resource tables.
type Usage struct {
	// CPUPercent is average CPU utilization over the interval, where 100
	// means one fully busy core.
	CPUPercent float64
	// MemBytes is the memory attributed to the monitored entity at the end
	// of the interval.
	MemBytes uint64
	// Elapsed is the measured interval.
	Elapsed time.Duration
}

// MemGB returns memory in decimal gigabytes, the paper's unit.
func (u Usage) MemGB() float64 { return float64(u.MemBytes) / 1e9 }

// ProcessMonitor measures this process's resource usage between Start and
// Stop, REMORA-style.
type ProcessMonitor struct {
	start ProcStat
}

// Start begins an interval measurement.
func (m *ProcessMonitor) Start() { m.start = ReadProcStat() }

// Stop ends the interval and reports usage since Start.
func (m *ProcessMonitor) Stop() Usage {
	end := ReadProcStat()
	elapsed := end.When.Sub(m.start.When)
	u := Usage{MemBytes: end.RSSBytes, Elapsed: elapsed}
	if elapsed > 0 {
		u.CPUPercent = 100 * float64(end.CPUTime-m.start.CPUTime) / float64(elapsed)
		if u.CPUPercent < 0 {
			u.CPUPercent = 0
		}
	}
	return u
}

// CPUMeter accumulates the wall time a component spends doing work. In a
// single-process simulation each controller role tracks its own busy time,
// which the harness converts to the per-role CPU%% columns of Tables II-IV.
type CPUMeter struct {
	busy atomic.Int64
}

// Add charges d of busy time directly.
func (c *CPUMeter) Add(d time.Duration) { c.busy.Add(int64(d)) }

// Busy returns total accumulated busy time.
func (c *CPUMeter) Busy() time.Duration { return time.Duration(c.busy.Load()) }

// MemoryReporter is implemented by components that can estimate the bytes of
// state they hold, enabling per-role memory attribution in single-process
// simulations.
type MemoryReporter interface {
	// MemoryFootprint returns the component's approximate state size in
	// bytes.
	MemoryFootprint() uint64
}
