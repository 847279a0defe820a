package controller

import (
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// The degraded-collect staleness bound is exclusive: a cached report aged
// exactly StaleAfter is already too old to serve, one aged a microsecond
// less is still served, and in both cases the true age is reported so the
// caller can account it.
func TestStaleReportExactBoundary(t *testing.T) {
	const staleAfter = 2 * time.Second
	now := time.Now()
	report := &wire.CollectReply{Reports: []wire.StageReport{{StageID: 1}}}

	c := &child{lastReport: report, lastReportAt: now.Add(-staleAfter)}
	if m, age, ok := c.staleReport(now, staleAfter); ok || m != nil {
		t.Errorf("report aged exactly StaleAfter was served (age %v)", age)
	} else if age != staleAfter {
		t.Errorf("dropped report age = %v, want exactly %v", age, staleAfter)
	}

	c = &child{lastReport: report, lastReportAt: now.Add(-(staleAfter - time.Microsecond))}
	if m, age, ok := c.staleReport(now, staleAfter); !ok {
		t.Errorf("report one microsecond younger than StaleAfter was dropped (age %v)", age)
	} else if m != report {
		t.Errorf("served message = %v, want the cached report", m)
	} else if age != staleAfter-time.Microsecond {
		t.Errorf("served report age = %v, want %v", age, staleAfter-time.Microsecond)
	}

	// No cached report at all: not served, and age 0 tells the caller
	// there is no drop to account either.
	c = &child{}
	if _, age, ok := c.staleReport(now, staleAfter); ok || age != 0 {
		t.Errorf("childless report = (age %v, ok %v), want (0, false)", age, ok)
	}
}

// appendStale must serve in-bound reports, drop aged-out ones, and record
// the ages of both in the stale-age histogram — the drop also bumping the
// drop counter, so FaultSummary can split used from dropped.
func TestStaleReportsHistogramRecordsServedAndDropped(t *testing.T) {
	const staleAfter = 2 * time.Second
	served := &wire.CollectReply{Reports: []wire.StageReport{{StageID: 1}}}
	dropped := &wire.CollectReply{Reports: []wire.StageReport{{StageID: 2}}}
	quarantined := []*child{
		{lastReport: served, lastReportAt: time.Now()},                       // age ~0: served
		{lastReport: dropped, lastReportAt: time.Now().Add(-2 * staleAfter)}, // aged out: dropped
		{}, // never reported: invisible to the histogram
	}

	var faults telemetry.FaultCounters
	k := &stageCore{faults: &faults}
	k.breaker.StaleAfter = staleAfter
	_, out := k.appendStale(nil, nil, quarantined)
	if len(out) != 1 || out[0] != served {
		t.Fatalf("appendStale served %d messages, want just the fresh one", len(out))
	}
	if got := faults.StaleDrops(); got != 1 {
		t.Errorf("StaleDrops = %d, want 1", got)
	}
	hist := faults.StaleAge()
	if got := hist.Count(); got != 2 {
		t.Errorf("stale-age histogram recorded %d ages, want 2 (served + dropped)", got)
	}
	if got := hist.Max(); got < 2*staleAfter {
		t.Errorf("stale-age histogram max = %v, want >= %v (the dropped report's age)", got, 2*staleAfter)
	}

	s := faults.Summarize()
	if s.StaleReportsUsed != 1 || s.StaleReportsDropped != 1 {
		t.Errorf("summary used/dropped = %d/%d, want 1/1", s.StaleReportsUsed, s.StaleReportsDropped)
	}
	if s.MaxStaleAge < 2*staleAfter {
		t.Errorf("summary MaxStaleAge = %v, want >= %v", s.MaxStaleAge, 2*staleAfter)
	}
}
