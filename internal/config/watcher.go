package config

import (
	"crypto/sha256"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Watcher polls a configuration file for changes without fsnotify: a read
// per tick (a transiently missing file — an editor's rename-in-place
// window — is not a change, and neither is an empty one — a truncating
// rewrite caught between its truncate and its write) and a content hash, so
// editors that rewrite the file with the same bytes do not trigger spurious
// reloads. The hash,
// not mtime, is the change signal: two same-size writes can land within
// the filesystem timestamp granularity, and a config file is small enough
// that hashing every poll costs nothing. A change is announced on C; the
// channel has capacity one and coalesces, matching SIGHUP semantics (N
// edits between reloads collapse into one reload of the latest content).
type Watcher struct {
	// C receives one token per observed content change.
	C <-chan struct{}

	path   string
	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}

	base fingerprint // baseline at construction, handed to the loop

	mu       sync.Mutex
	interval time.Duration
	kick     chan struct{} // wakes the loop when the interval changes

	polls   atomic.Uint64
	changes atomic.Uint64
}

// NewWatcher starts polling path every interval (zero selects DefaultPoll).
// The file's current content is the baseline: only subsequent changes
// notify.
func NewWatcher(path string, interval time.Duration) *Watcher {
	if interval <= 0 {
		interval = DefaultPoll
	}
	ch := make(chan struct{}, 1)
	w := &Watcher{
		C:        ch,
		path:     path,
		notify:   ch,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		interval: interval,
		kick:     make(chan struct{}, 1),
	}
	// Baseline before the loop starts so an edit racing construction is
	// still seen as a change on the first poll.
	w.base, _ = snapshot(path, fingerprint{})
	go w.loop()
	return w
}

// SetInterval changes the polling interval (a live-reloadable knob itself).
func (w *Watcher) SetInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultPoll
	}
	w.mu.Lock()
	w.interval = d
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Polls returns how many times the watcher has read the file.
func (w *Watcher) Polls() uint64 { return w.polls.Load() }

// Changes returns how many content changes the watcher has observed.
func (w *Watcher) Changes() uint64 { return w.changes.Load() }

// Close stops the polling loop.
func (w *Watcher) Close() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

func (w *Watcher) currentInterval() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.interval
}

type fingerprint struct {
	hash [sha256.Size]byte
}

// snapshot hashes the file's content. It returns the new fingerprint and
// whether the content changed from prev.
func snapshot(path string, prev fingerprint) (fingerprint, bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		// A transiently missing file (editor rename-in-place window) or an
		// empty one (os.WriteFile and a shell '>' truncate before they
		// write) is not a change; the next poll sees the new content.
		return prev, false
	}
	next := fingerprint{hash: sha256.Sum256(data)}
	return next, next.hash != prev.hash
}

func (w *Watcher) loop() {
	defer close(w.done)
	cur := w.base
	timer := time.NewTimer(w.currentInterval())
	defer timer.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(w.currentInterval())
		case <-timer.C:
			w.polls.Add(1)
			var changed bool
			cur, changed = snapshot(w.path, cur)
			if changed {
				w.changes.Add(1)
				select {
				case w.notify <- struct{}{}:
				default:
				}
			}
			timer.Reset(w.currentInterval())
		}
	}
}

// Reloader owns the accept/reject policy of hot reload: Reload loads the
// file fresh, diffs it against the running configuration, and either
// adopts it (returning the safe delta to apply) or rejects it — parse
// error, validation error, or unsafe delta — keeping the old configuration
// and counting the rejection.
type Reloader struct {
	path string

	mu  sync.Mutex
	cur *File

	reloads atomic.Uint64
	rejects atomic.Uint64
}

// NewReloader wraps the configuration the deployment is currently running.
func NewReloader(path string, cur *File) *Reloader {
	return &Reloader{path: path, cur: cur}
}

// Current returns the configuration in force.
func (r *Reloader) Current() *File {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// Reloads and Rejects count accepted and rejected reload attempts.
func (r *Reloader) Reloads() uint64 { return r.reloads.Load() }

// Rejects counts reload attempts that kept the old configuration.
func (r *Reloader) Rejects() uint64 { return r.rejects.Load() }

// Reload attempts to adopt the on-disk configuration. On success the new
// file becomes Current and the delta to apply is returned; on any error
// the previous configuration stays in force.
func (r *Reloader) Reload() (*File, Delta, error) {
	next, err := Load(r.path)
	if err != nil {
		r.rejects.Add(1)
		return nil, Delta{}, err
	}
	r.mu.Lock()
	old := r.cur
	r.mu.Unlock()
	delta, err := Diff(old, next)
	if err != nil {
		r.rejects.Add(1)
		return nil, Delta{}, err
	}
	r.mu.Lock()
	r.cur = next
	r.mu.Unlock()
	r.reloads.Add(1)
	return next, delta, nil
}
