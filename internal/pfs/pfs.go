// Package pfs simulates a shared parallel file system in the style of
// Lustre: a metadata server (MDS) and a set of object storage targets (OSTs)
// with finite service capacities.
//
// The scalability experiments never touch the PFS — exactly as in the paper,
// whose virtual stages only answer the control plane. The simulator exists
// for the end-to-end QoS demonstrations (examples/ and the stage tests):
// jobs submit I/O through enforcing stages, the PFS saturates, and the
// control plane's PSFA allocations determine who makes progress.
//
// Each server is an M/D/1-style virtual-time queue: operations are serviced
// one at a time at a deterministic rate, so when offered load exceeds
// capacity, queueing delay — the I/O interference the paper opens with —
// grows without bound.
package pfs

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// ErrOverloaded is returned when a server's queue exceeds its bound, the
// simulator's analogue of a PFS timing out requests under contention.
var ErrOverloaded = errors.New("pfs: server queue overflow")

// Config parameterizes the simulated file system.
type Config struct {
	// OSTs is the number of object storage targets. Zero selects 8.
	OSTs int
	// OSTCapacity is each OST's data-operation service rate (IOPS). Zero
	// selects 10,000.
	OSTCapacity float64
	// MDSCapacity is the metadata server's service rate (ops/s). Zero
	// selects 5,000.
	MDSCapacity float64
	// MaxQueue bounds each server's queue (operations waiting or in
	// service). Zero selects 100,000; negative disables the bound.
	MaxQueue int
}

func (c Config) withDefaults() Config {
	if c.OSTs <= 0 {
		c.OSTs = 8
	}
	if c.OSTCapacity <= 0 {
		c.OSTCapacity = 10000
	}
	if c.MDSCapacity <= 0 {
		c.MDSCapacity = 5000
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 100000
	}
	return c
}

// server is one service point (the MDS or an OST) with deterministic
// service time and a virtual-time queue.
type server struct {
	mu       sync.Mutex
	svc      time.Duration // per-operation service time
	nextFree time.Time     // when the server finishes its current backlog
	queued   int
	maxQueue int
}

func newServer(capacity float64, maxQueue int) *server {
	return &server{
		svc:      time.Duration(float64(time.Second) / capacity),
		maxQueue: maxQueue,
	}
}

// schedule reserves a service slot and returns the operation's completion
// time.
func (s *server) schedule(now time.Time) (time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxQueue >= 0 && s.queued >= s.maxQueue {
		return time.Time{}, ErrOverloaded
	}
	start := now
	if s.nextFree.After(start) {
		start = s.nextFree
	}
	complete := start.Add(s.svc)
	s.nextFree = complete
	s.queued++
	return complete, nil
}

// finish marks one operation complete.
func (s *server) finish() {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
}

// clientStats accumulates one client's I/O accounting.
type clientStats struct {
	ops [wire.NumClasses]uint64
}

// FileSystem is the simulated PFS.
type FileSystem struct {
	cfg  Config
	mds  *server
	osts []*server

	mu      sync.Mutex
	clients map[uint64]*clientStats
}

// New creates a file system with the given configuration.
func New(cfg Config) *FileSystem {
	cfg = cfg.withDefaults()
	fs := &FileSystem{
		cfg:     cfg,
		mds:     newServer(cfg.MDSCapacity, cfg.MaxQueue),
		clients: make(map[uint64]*clientStats),
	}
	for i := 0; i < cfg.OSTs; i++ {
		fs.osts = append(fs.osts, newServer(cfg.OSTCapacity, cfg.MaxQueue))
	}
	return fs
}

// route picks the serving target for an operation. Data operations stripe
// across OSTs by client and a per-client counter (round-robin), metadata
// goes to the MDS.
func (fs *FileSystem) route(clientID uint64, class wire.OpClass, seq uint64) *server {
	if class == wire.ClassMeta {
		return fs.mds
	}
	return fs.osts[(clientID+seq)%uint64(len(fs.osts))]
}

// Submit issues one operation for clientID and blocks until the simulated
// file system completes it (or ctx ends). It returns the operation's
// simulated latency (queueing + service).
func (fs *FileSystem) Submit(ctx context.Context, clientID uint64, class wire.OpClass) (time.Duration, error) {
	now := time.Now()

	fs.mu.Lock()
	st, ok := fs.clients[clientID]
	if !ok {
		st = &clientStats{}
		fs.clients[clientID] = st
	}
	seq := st.ops[class]
	fs.mu.Unlock()

	srv := fs.route(clientID, class, seq)
	complete, err := srv.schedule(now)
	if err != nil {
		return 0, err
	}
	defer srv.finish()

	latency := complete.Sub(now)
	if latency > 0 {
		t := time.NewTimer(latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return 0, ctx.Err()
		}
	}

	fs.mu.Lock()
	st.ops[class]++
	fs.mu.Unlock()
	return latency, nil
}

// ClientOps returns the number of completed operations per class for one
// client.
func (fs *FileSystem) ClientOps(clientID uint64) wire.Rates {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var r wire.Rates
	if st, ok := fs.clients[clientID]; ok {
		for c := range r {
			r[c] = float64(st.ops[c])
		}
	}
	return r
}
