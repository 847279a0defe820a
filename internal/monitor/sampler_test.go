package monitor

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
)

func TestSamplerCollectsSeries(t *testing.T) {
	var meter transport.Meter
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go io.Copy(io.Discard, b)
	conn := transport.WithMeter(a, &meter)
	s := StartSampler(20*time.Millisecond, &meter)

	// Generate some traffic between samples.
	for i := 0; i < 5; i++ {
		if _, err := conn.Write(make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	samples := s.Stop()
	if len(samples) < 3 {
		t.Fatalf("collected %d samples, want >= 3", len(samples))
	}
	var sawTraffic bool
	for i, sm := range samples {
		if sm.RSSBytes == 0 {
			t.Errorf("sample %d has zero RSS", i)
		}
		if sm.When.IsZero() {
			t.Errorf("sample %d has zero timestamp", i)
		}
		if sm.TxMBps > 0 {
			sawTraffic = true
		}
	}
	if !sawTraffic {
		t.Error("no sample observed the metered traffic")
	}
	// Timestamps strictly increase.
	for i := 1; i < len(samples); i++ {
		if !samples[i].When.After(samples[i-1].When) {
			t.Fatalf("timestamps not increasing at %d", i)
		}
	}
}

func TestSamplerNilMeter(t *testing.T) {
	s := StartSampler(10*time.Millisecond, nil)
	time.Sleep(35 * time.Millisecond)
	samples := s.Stop()
	if len(samples) == 0 {
		t.Fatal("no samples without a meter")
	}
	for _, sm := range samples {
		if sm.TxMBps != 0 || sm.RxMBps != 0 {
			t.Error("network rates nonzero without a meter")
		}
	}
}

func TestSamplerStopIdempotent(t *testing.T) {
	s := StartSampler(10*time.Millisecond, nil)
	time.Sleep(15 * time.Millisecond)
	a := s.Stop()
	b := s.Stop()
	if len(b) < len(a) {
		t.Error("second Stop lost samples")
	}
}

func TestSamplerDefaultInterval(t *testing.T) {
	s := StartSampler(0, nil) // must not panic; defaults to 1s
	s.Stop()
}

func TestSamplesCSV(t *testing.T) {
	samples := []Sample{
		{When: time.UnixMilli(1000), CPUPercent: 12.5, RSSBytes: 4096, TxMBps: 1.5, RxMBps: 0.5},
		{When: time.UnixMilli(2000), CPUPercent: 0, RSSBytes: 8192},
	}
	out := SamplesCSV(samples)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("rows = %d", len(lines))
	}
	if lines[0] != "1000,12.50,4096,1.5000,0.5000" {
		t.Errorf("row 0 = %q", lines[0])
	}
	if got, want := len(strings.Split(lines[0], ",")), len(strings.Split(SamplesCSVHeader, ",")); got != want {
		t.Errorf("field count %d != header %d", got, want)
	}
	if SamplesCSV(nil) != "" {
		t.Error("CSV of nothing is nonempty")
	}
}
