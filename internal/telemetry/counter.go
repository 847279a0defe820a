package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is a total that many connections add to without sharing a word.
// Each connection counts into a Shard of its own, so connection readers on
// different cores never write one cache line; Load sums the open shards
// plus a base word that holds what closed ones left behind. Registering and
// closing a shard take the counter's lock, adding to one does not.
//
// The zero value is ready to use, and a nil *Counter is a valid counter
// that nothing is attached to.
type Counter struct {
	mu   sync.Mutex
	open []*Shard
	base atomic.Uint64 // closed shards' counts
}

// Shard is one connection's share of a Counter. Its zero value counts on
// its own until Attach registers it; after Close every Add goes straight to
// the counter's base word, so a count that races the close is not lost.
type Shard struct {
	n      atomic.Uint64
	closed atomic.Bool
	c      *Counter
	i      int // index in c.open; guarded by c.mu
}

// Attach registers s, which must be new, with c. A nil c leaves s counting
// on its own.
func (c *Counter) Attach(s *Shard) {
	if c == nil {
		return
	}
	c.mu.Lock()
	s.c, s.i = c, len(c.open)
	c.open = append(c.open, s)
	c.mu.Unlock()
}

// Add counts n.
func (s *Shard) Add(n uint64) {
	s.n.Add(n)
	if s.closed.Load() {
		// Closed before or during this add: move the count to the
		// counter's base (Swap hands each count over once).
		s.c.base.Add(s.n.Swap(0))
	}
}

// Close folds s into its counter's base word and unregisters it. It is
// idempotent, and a no-op on a shard that was never attached.
func (s *Shard) Close() {
	c := s.c
	if c == nil {
		return
	}
	c.mu.Lock()
	if !s.closed.Load() {
		last := c.open[len(c.open)-1]
		c.open[s.i], last.i = last, s.i
		c.open[len(c.open)-1] = nil
		c.open = c.open[:len(c.open)-1]
		// Under the lock, so no Load sees the count in neither place.
		s.closed.Store(true)
		c.base.Add(s.n.Swap(0))
	}
	c.mu.Unlock()
}

// Load returns the total: every open shard's count plus the base word.
// Successive loads never decrease.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	v := c.base.Load()
	for _, s := range c.open {
		v += s.n.Load()
	}
	c.mu.Unlock()
	return v
}
