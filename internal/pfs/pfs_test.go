package pfs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

func TestDefaults(t *testing.T) {
	cfg := New(Config{}).cfg
	if cfg.OSTs <= 0 || cfg.OSTCapacity <= 0 || cfg.MDSCapacity <= 0 || cfg.MaxQueue == 0 {
		t.Errorf("defaulted config = %+v", cfg)
	}
}

func TestSubmitCompletes(t *testing.T) {
	fs := New(Config{OSTs: 1, OSTCapacity: 100000, MDSCapacity: 100000})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := fs.Submit(ctx, 1, wire.ClassData); err != nil {
			t.Fatalf("Submit data: %v", err)
		}
		if _, err := fs.Submit(ctx, 1, wire.ClassMeta); err != nil {
			t.Fatalf("Submit meta: %v", err)
		}
	}
	ops := fs.ClientOps(1)
	if ops[wire.ClassData] != 10 || ops[wire.ClassMeta] != 10 {
		t.Errorf("client ops = %v, want {10, 10}", ops)
	}
}

func TestThroughputBoundedByCapacity(t *testing.T) {
	// One OST at 1000 IOPS: 50 back-to-back ops should take ~50ms.
	fs := New(Config{OSTs: 1, OSTCapacity: 1000, MDSCapacity: 1000})
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 50; i++ {
		if _, err := fs.Submit(ctx, 1, wire.ClassData); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 40*time.Millisecond {
		t.Errorf("50 ops at 1000 IOPS took %v, want >= ~50ms", elapsed)
	}
}

func TestContentionGrowsLatency(t *testing.T) {
	// Two clients hammering one slow OST: later ops must see queueing.
	fs := New(Config{OSTs: 1, OSTCapacity: 500, MDSCapacity: 500})
	ctx := context.Background()
	var wg sync.WaitGroup
	var waited time.Duration // client 1's summed latency
	for c := uint64(1); c <= 2; c++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lat, _ := fs.Submit(ctx, id, wire.ClassData)
				if id == 1 {
					waited += lat
				}
			}
		}(c)
	}
	wg.Wait()
	lat1 := waited / 25
	// Service time alone is 2ms; with two competing clients the mean wait
	// must exceed it.
	if lat1 <= 2*time.Millisecond {
		t.Errorf("mean latency under contention = %v, want > 2ms", lat1)
	}
}

func TestStripingAcrossOSTs(t *testing.T) {
	// With N OSTs, a single client's data ops spread out, so aggregate
	// throughput exceeds a single OST's capacity.
	fs := New(Config{OSTs: 4, OSTCapacity: 500, MDSCapacity: 500})
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				fs.Submit(ctx, 7, wire.ClassData)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 100 ops at aggregate 2000 IOPS ≈ 50ms; at single-OST 500 IOPS it
	// would be 200ms. Allow generous slack but require better than serial.
	if elapsed > 150*time.Millisecond {
		t.Errorf("striped ops took %v, want well under single-OST 200ms", elapsed)
	}
}

func TestSubmitContextCancel(t *testing.T) {
	fs := New(Config{OSTs: 1, OSTCapacity: 1, MDSCapacity: 1}) // 1s service time
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// Queue a couple of ops; the second waits >1s and must be canceled.
	go fs.Submit(context.Background(), 1, wire.ClassData)
	time.Sleep(5 * time.Millisecond)
	_, err := fs.Submit(ctx, 2, wire.ClassData)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit = %v, want DeadlineExceeded", err)
	}
}

func TestQueueOverflow(t *testing.T) {
	fs := New(Config{OSTs: 1, OSTCapacity: 1, MDSCapacity: 1, MaxQueue: 3})
	ctx := context.Background()
	// Fill the queue without waiting for completions.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			defer cancel()
			fs.Submit(cctx, id, wire.ClassData)
		}(uint64(i))
	}
	time.Sleep(20 * time.Millisecond)
	_, err := fs.Submit(ctx, 99, wire.ClassData)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit over MaxQueue = %v, want ErrOverloaded", err)
	}
	wg.Wait()
}

func TestUnknownClientStats(t *testing.T) {
	fs := New(Config{})
	if ops := fs.ClientOps(42); !ops.IsZero() {
		t.Errorf("unknown client ops = %v", ops)
	}
}

func BenchmarkSubmitUncontended(b *testing.B) {
	fs := New(Config{OSTs: 8, OSTCapacity: 1e9, MDSCapacity: 1e9})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs.Submit(ctx, uint64(i%4), wire.ClassData)
	}
}
