// Package store is the control plane's durability layer: an append-only
// write-ahead log of control-plane mutations (member registration and
// eviction, enforced rule batches, job-weight changes, leadership epoch and
// vote bumps) with periodic compacted snapshots.
//
// The paper's prototype keeps all controller state in memory, so a double
// failure (primary plus standby) silently forgets every QoS decision the
// control loop converged to. The store closes that gap the way production
// SDS controllers do — everything behind the controller persisted in a
// small embedded log — while keeping durability off the control cycle's hot
// path:
//
//   - Appends are group-committed: a mutation is encoded into an in-memory
//     buffer under a mutex and the caller returns immediately; a background
//     flusher writes and fsyncs the batch every FsyncInterval. The
//     steady-state cycle cost stays O(changed children), and a fully
//     quiesced incremental cycle appends nothing at all.
//   - Epoch and vote records are the exception: leadership fencing is only
//     sound if the epoch allocation survives the crash that motivated it,
//     so AppendEpoch and AppendVote block until their record is durable.
//   - Every record is CRC-framed. A torn tail — the partial record a crash
//     mid-write leaves behind — is detected and truncated on open; a
//     corrupt record mid-log stops replay at the last good prefix.
//   - The store materializes the log into live state (members, last rules,
//     weights, epoch) as records are appended, so compaction snapshots its
//     own state instead of calling back into the controller, and recovery
//     is "load snapshot, apply records newer than its watermark".
//
// On-disk layout in Dir (see docs/PROTOCOL.md for the byte-level format):
//
//	snapshot.snap — one framed record: uvarint watermark LSN, uvarint voted
//	                epoch, then a wire.StateSync of the state in the
//	                fixed-width encoding (wire.Encode).
//	wal.log       — framed mutation records, LSNs strictly increasing.
//
// Record frame: uint32 LE payload length, uint32 LE CRC-32 (IEEE) of the
// payload, payload. Payload: uvarint LSN, one kind byte, kind-specific body
// in the wire package's fixed-width primitive encodings.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// File names inside the store directory.
const (
	snapshotFile = "snapshot.snap"
	logFile      = "wal.log"
)

// Record kinds. Append-only: decoders must tolerate unknown kinds from
// newer builds by failing the record, never by misparsing it.
const (
	// kindRegister upserts one member (stage or aggregator) into the
	// membership table.
	kindRegister byte = 1
	// kindEvict removes one member by ID.
	kindEvict byte = 2
	// kindRules replaces the named rules in one child's last-enforced rule
	// batch (keyed per stage, so partial batches merge like the
	// controller's delta cache).
	kindRules byte = 3
	// kindWeight sets one job's QoS weight.
	kindWeight byte = 4
	// kindEpoch records a leadership-epoch allocation. Always fsynced
	// before the allocator acts on it.
	kindEpoch byte = 5
	// kindVote records a leadership vote (the highest epoch this node
	// promised). Always fsynced before the vote is cast.
	kindVote byte = 6
)

// frameHeaderLen is the fixed per-record framing overhead.
const frameHeaderLen = 8

// maxRecordLen bounds a single record's payload. A frame announcing more is
// treated as a torn/corrupt tail rather than allocated for.
const maxRecordLen = 1 << 26

// Defaults for Options zeros.
const (
	// DefaultFsyncInterval is the group-commit window: how long an
	// asynchronous append may wait before its batch is written and synced.
	DefaultFsyncInterval = 2 * time.Millisecond
	// DefaultSnapshotEvery is how many log records accumulate before the
	// flusher compacts them into a snapshot.
	DefaultSnapshotEvery = 4096
	// DefaultMaxLogBytes compacts early if the log outgrows this size.
	DefaultMaxLogBytes = 4 << 20
)

// ErrClosed is returned by appends on a closed store.
var ErrClosed = errors.New("store: closed")

// Options configures Open.
type Options struct {
	// Dir is the data directory. Created if missing.
	Dir string
	// FsyncInterval is the group-commit window. Zero selects
	// DefaultFsyncInterval.
	FsyncInterval time.Duration
	// SnapshotEvery compacts the log after this many records. Zero selects
	// DefaultSnapshotEvery.
	SnapshotEvery int
	// MaxLogBytes compacts the log when it outgrows this size. Zero
	// selects DefaultMaxLogBytes.
	MaxLogBytes int64
	// NoFsync skips fsync calls (writes still happen). For tests and
	// single-process simulations where process death, not power loss, is
	// the failure model.
	NoFsync bool
	// Logf, if non-nil, receives operational logs (torn-tail truncation,
	// compactions).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if o.MaxLogBytes <= 0 {
		o.MaxLogBytes = DefaultMaxLogBytes
	}
	return o
}

// member is one materialized membership entry.
type member struct {
	state wire.MemberState // Rules field unused; rules live in the map below
	rules map[uint64]wire.Rule
}

// memState is the store's materialized view of the log.
type memState struct {
	members map[uint64]*member
	weights map[uint64]float64
	epoch   uint64
	voted   uint64
	cycle   uint64
}

func newMemState() memState {
	return memState{
		members: make(map[uint64]*member),
		weights: make(map[uint64]float64),
	}
}

// Store is a durable write-ahead log plus snapshot for one controller.
// All methods are safe for concurrent use.
type Store struct {
	opts Options

	mu      sync.Mutex
	durable *sync.Cond // signals flushedSeq advancing
	log     *os.File
	logSize int64
	// pending/writing double-buffer the group commit: appends encode into
	// pending under mu; the flusher swaps the buffers and writes outside it.
	pending      []byte
	writing      []byte
	pendingRecs  int
	nextLSN      uint64
	appendSeq    uint64 // bumped per append
	flushedSeq   uint64 // highest appendSeq durably on disk
	flushErr     error  // sticky: a failed write poisons the store
	closed       bool
	state        memState
	logRecords   uint64 // records currently in the log segment
	snapLSN      uint64 // watermark of the last snapshot
	lastSnapshot time.Time

	// Telemetry (under mu).
	appended   uint64
	fsyncs     uint64
	fsyncLast  time.Duration
	fsyncTotal time.Duration
	fsyncMax   time.Duration
	snapshots  uint64
	replay     ReplayInfo

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// ReplayInfo summarizes what Open recovered from disk.
type ReplayInfo struct {
	// Duration is how long the snapshot load plus log replay took.
	Duration time.Duration
	// Records is how many log records were applied.
	Records uint64
	// Skipped is how many log records predated the snapshot watermark
	// (a crash between snapshot rename and log truncation leaves them).
	Skipped uint64
	// TruncatedBytes is the torn/corrupt tail dropped from the log.
	TruncatedBytes int64
	// HadSnapshot reports whether a snapshot was loaded.
	HadSnapshot bool
}

// Stats is a point-in-time snapshot of the store's telemetry.
type Stats struct {
	// Dir is the data directory.
	Dir string
	// LogBytes and LogRecords describe the current log segment.
	LogBytes   int64
	LogRecords uint64
	// AppendedRecords counts records appended over the store's lifetime
	// (excluding replayed ones).
	AppendedRecords uint64
	// PendingBytes is the group-commit buffer not yet written.
	PendingBytes int
	// Fsyncs counts group commits that reached disk; FsyncLast/Mean/Max
	// summarize their latency.
	Fsyncs                         uint64
	FsyncLast, FsyncMean, FsyncMax time.Duration
	// Snapshots counts compactions; SnapshotAge is the time since the
	// last one (zero if none yet).
	Snapshots   uint64
	SnapshotAge time.Duration
	// NextLSN and SnapshotLSN locate the log head and snapshot watermark.
	NextLSN, SnapshotLSN uint64
	// Replay describes what Open recovered.
	Replay ReplayInfo
}

// Recovered is the materialized control-plane state the store holds.
type Recovered struct {
	// Epoch is the highest leadership epoch recorded; VotedEpoch the
	// highest epoch this node promised a vote for.
	Epoch, VotedEpoch uint64
	// Cycle is the highest control-cycle number stamped on a record.
	Cycle uint64
	// State carries membership (with per-child last-enforced rules) and
	// job weights in the same shape StateSync replicates, so a recovering
	// controller adopts it with the promotion code path.
	State *wire.StateSync
}

// Open opens (or creates) the store in opts.Dir, loads the snapshot,
// replays the log — truncating a torn or corrupt tail — and starts the
// group-commit flusher.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{
		opts:  opts,
		state: newMemState(),
		// LSN 0 is reserved as the empty-snapshot watermark: replay keeps
		// records strictly above the watermark, so real LSNs start at 1.
		nextLSN: 1,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.durable = sync.NewCond(&s.mu)
	start := time.Now()
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.openLog(); err != nil {
		return nil, err
	}
	s.replay.Duration = time.Since(start)
	go s.flushLoop()
	return s, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// loadSnapshot reads snapshot.snap if present. A missing file is a fresh
// store; a corrupt one is an error — silently discarding a snapshot would
// lose state, so the operator decides.
func (s *Store) loadSnapshot() error {
	path := filepath.Join(s.opts.Dir, snapshotFile)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	payload, _, ferr := readFrame(raw)
	if ferr != nil {
		return fmt.Errorf("store: snapshot corrupt: %w", ferr)
	}
	watermark, voted, sync, derr := decodeSnapshot(payload)
	if derr != nil {
		return fmt.Errorf("store: snapshot corrupt: %w", derr)
	}
	s.snapLSN = watermark
	s.nextLSN = watermark + 1
	s.state.epoch = sync.Epoch
	s.state.cycle = sync.Cycle
	s.state.voted = voted
	for i := range sync.Members {
		m := &sync.Members[i]
		e := &member{state: *m}
		e.state.Rules = nil
		if len(m.Rules) > 0 {
			e.rules = make(map[uint64]wire.Rule, len(m.Rules))
			for _, r := range m.Rules {
				e.rules[r.StageID] = r
			}
		}
		s.state.members[m.ID] = e
	}
	for _, w := range sync.Weights {
		s.state.weights[w.JobID] = w.Weight
	}
	s.replay.HadSnapshot = true
	s.lastSnapshot = time.Now()
	return nil
}

// openLog opens the WAL, replays every intact record, and truncates the
// file at the first torn or corrupt one.
func (s *Store) openLog() error {
	path := filepath.Join(s.opts.Dir, logFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open log: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: read log: %w", err)
	}
	good := 0
	for good < len(raw) {
		payload, n, ferr := readFrame(raw[good:])
		if ferr != nil {
			break // torn or corrupt tail: replay stops at the last good prefix
		}
		rec, derr := parseRecord(payload)
		if derr != nil {
			break
		}
		if rec.lsn <= s.snapLSN {
			// The snapshot already covers this record: a crash between
			// snapshot rename and log truncation leaves such a prefix.
			s.replay.Skipped++
		} else {
			s.applyLocked(rec)
			s.replay.Records++
			s.logRecords++
		}
		if rec.lsn >= s.nextLSN {
			s.nextLSN = rec.lsn + 1
		}
		good += n
	}
	if good < len(raw) {
		dropped := int64(len(raw) - good)
		s.replay.TruncatedBytes = dropped
		s.logf("store: truncating %d-byte torn tail off %s (%d records replayed)", dropped, path, s.replay.Records)
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if !s.opts.NoFsync {
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("store: sync after truncate: %w", err)
			}
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: seek log end: %w", err)
	}
	s.log = f
	s.logSize = int64(good)
	return nil
}

// record is one parsed WAL record.
type record struct {
	lsn  uint64
	kind byte
	// kindRegister
	member wire.MemberState
	// kindEvict / kindRules
	childID uint64
	// kindRules
	cycle uint64
	rules []wire.Rule
	// kindWeight
	jobID  uint64
	weight float64
	// kindEpoch / kindVote
	epoch uint64
}

// applyLocked folds one record into the materialized state. Idempotent:
// every kind is an upsert, delete, or max, so replaying a prefix twice
// (snapshot overlap) converges to the same state.
func (s *Store) applyLocked(rec record) {
	switch rec.kind {
	case kindRegister:
		e := s.state.members[rec.member.ID]
		if e == nil {
			e = &member{}
			s.state.members[rec.member.ID] = e
		}
		rules := e.rules
		e.state = rec.member
		e.state.Rules = nil
		e.rules = rules
	case kindEvict:
		delete(s.state.members, rec.childID)
	case kindRules:
		e := s.state.members[rec.childID]
		if e == nil {
			// Rules for a member the log never registered (interleaving
			// across a compaction edge): keep them — zero rule loss beats
			// referential tidiness, and eviction removes the entry anyway.
			e = &member{state: wire.MemberState{ID: rec.childID}}
			s.state.members[rec.childID] = e
		}
		if e.rules == nil {
			e.rules = make(map[uint64]wire.Rule, len(rec.rules))
		}
		for _, r := range rec.rules {
			e.rules[r.StageID] = r
		}
		if rec.cycle > s.state.cycle {
			s.state.cycle = rec.cycle
		}
	case kindWeight:
		s.state.weights[rec.jobID] = rec.weight
	case kindEpoch:
		if rec.epoch > s.state.epoch {
			s.state.epoch = rec.epoch
		}
	case kindVote:
		if rec.epoch > s.state.voted {
			s.state.voted = rec.epoch
		}
	}
}

// appendLocked frames one record into the pending buffer and materializes
// it. Callers hold mu.
func (s *Store) appendLocked(rec record) uint64 {
	rec.lsn = s.nextLSN
	s.nextLSN++
	start := len(s.pending)
	s.pending = append(s.pending, 0, 0, 0, 0, 0, 0, 0, 0)
	s.pending = encodeRecordBody(s.pending, rec)
	payload := s.pending[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(s.pending[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(s.pending[start+4:], crc32.ChecksumIEEE(payload))
	s.pendingRecs++
	s.appended++
	s.appendSeq++
	s.applyLocked(rec)
	return s.appendSeq
}

// append frames, materializes, and schedules one record for group commit.
func (s *Store) append(rec record) (seq uint64, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if s.flushErr != nil {
		err = s.flushErr
		s.mu.Unlock()
		return 0, err
	}
	seq = s.appendLocked(rec)
	s.mu.Unlock()
	s.kick()
	return seq, nil
}

func (s *Store) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// AppendRegister upserts one member (without its rules, which kindRules
// records carry) into the durable membership table.
func (s *Store) AppendRegister(m wire.MemberState) error {
	m.Rules = nil
	_, err := s.append(record{kind: kindRegister, member: m})
	return err
}

// AppendEvict removes one member from the durable membership table.
func (s *Store) AppendEvict(id uint64) error {
	_, err := s.append(record{kind: kindEvict, childID: id})
	return err
}

// AppendRules records the rule batch just enforced on one child, before it
// is sent: the store must always hold a superset of what the fleet holds.
func (s *Store) AppendRules(cycle, childID uint64, rules []wire.Rule) error {
	_, err := s.append(record{kind: kindRules, cycle: cycle, childID: childID, rules: rules})
	return err
}

// AppendWeight records one job's QoS weight.
func (s *Store) AppendWeight(jobID uint64, weight float64) error {
	_, err := s.append(record{kind: kindWeight, jobID: jobID, weight: weight})
	return err
}

// AppendEpoch durably records a leadership-epoch allocation. It returns
// only once the record is on disk: an epoch a crash can forget is not a
// fence.
func (s *Store) AppendEpoch(epoch uint64) error {
	seq, err := s.append(record{kind: kindEpoch, epoch: epoch})
	if err != nil {
		return err
	}
	return s.waitDurable(seq)
}

// AppendVote durably records a leadership vote (the highest epoch this
// node promised). Like AppendEpoch it blocks until the record is on disk:
// a forgotten vote could be granted twice.
func (s *Store) AppendVote(epoch uint64) error {
	seq, err := s.append(record{kind: kindVote, epoch: epoch})
	if err != nil {
		return err
	}
	return s.waitDurable(seq)
}

// Sync forces a group commit of everything appended so far and waits for
// it to reach disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	seq := s.appendSeq
	s.mu.Unlock()
	s.kick()
	return s.waitDurable(seq)
}

// waitDurable blocks until appendSeq seq has been flushed (and fsynced,
// unless NoFsync) or the store fails/closes.
func (s *Store) waitDurable(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.flushedSeq < seq {
		if s.flushErr != nil {
			return s.flushErr
		}
		if s.closed {
			return ErrClosed
		}
		s.durable.Wait()
	}
	return s.flushErr
}

// flushLoop is the group-commit flusher: every FsyncInterval (or sooner,
// when kicked by a durable append) it writes the pending buffer, fsyncs,
// and wakes waiters; then it compacts if the log has outgrown its bounds.
func (s *Store) flushLoop() {
	defer close(s.done)
	tick := time.NewTicker(s.opts.FsyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			s.flush()
			return
		case <-tick.C:
		case <-s.wake:
		}
		s.flush()
		s.maybeCompact()
	}
}

// flush writes and syncs the pending buffer. Only the flusher goroutine
// calls it, so the write itself happens outside mu via the double buffer.
func (s *Store) flush() {
	s.mu.Lock()
	if len(s.pending) == 0 || s.flushErr != nil {
		s.mu.Unlock()
		return
	}
	buf := s.pending
	recs := s.pendingRecs
	seq := s.appendSeq
	s.pending, s.writing = s.writing[:0], s.pending
	s.pendingRecs = 0
	s.mu.Unlock()

	start := time.Now()
	_, werr := s.log.Write(buf)
	if werr == nil && !s.opts.NoFsync {
		werr = s.log.Sync()
	}
	d := time.Since(start)

	s.mu.Lock()
	if werr != nil {
		s.flushErr = fmt.Errorf("store: flush: %w", werr)
		s.logf("store: flush failed, store poisoned: %v", werr)
	} else {
		s.logSize += int64(len(buf))
		s.logRecords += uint64(recs)
		s.flushedSeq = seq
		s.fsyncs++
		s.fsyncLast = d
		s.fsyncTotal += d
		if d > s.fsyncMax {
			s.fsyncMax = d
		}
	}
	s.durable.Broadcast()
	s.mu.Unlock()
}

// maybeCompact snapshots the materialized state and truncates the log once
// it outgrows the configured bounds. It runs on the flusher goroutine with
// mu held across the file operations: compaction is rare and off the
// cycle's hot path, and holding the lock guarantees no record encoded
// after the snapshot's watermark can be dropped by the truncation.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushErr != nil || s.closed {
		return
	}
	if s.logRecords < uint64(s.opts.SnapshotEvery) && s.logSize < s.opts.MaxLogBytes {
		return
	}
	if err := s.compactLocked(); err != nil {
		s.flushErr = fmt.Errorf("store: compact: %w", err)
		s.logf("store: compaction failed, store poisoned: %v", err)
		s.durable.Broadcast()
	}
}

// compactLocked writes the snapshot (temp file, fsync, atomic rename) and
// truncates the log. Crash-ordering: the snapshot covers every LSN below
// nextLSN, so a crash after the rename but before the truncation only
// leaves records the next open's watermark check skips.
func (s *Store) compactLocked() error {
	watermark := s.nextLSN - 1
	payload := encodeSnapshot(nil, watermark, s.state)
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)

	path := filepath.Join(s.opts.Dir, snapshotFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return err
	}
	if !s.opts.NoFsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if !s.opts.NoFsync {
		if dir, err := os.Open(s.opts.Dir); err == nil {
			_ = dir.Sync()
			dir.Close()
		}
	}
	if err := s.log.Truncate(0); err != nil {
		return err
	}
	if _, err := s.log.Seek(0, io.SeekStart); err != nil {
		return err
	}
	dropped := s.logRecords
	s.logSize = 0
	s.logRecords = 0
	s.snapLSN = watermark
	s.snapshots++
	s.lastSnapshot = time.Now()
	s.logf("store: compacted %d log records into snapshot at LSN %d (%d bytes)", dropped, watermark, len(frame))
	return nil
}

// Recovered returns the store's materialized control-plane state, in the
// shape StateSync replicates. Members are sorted by ID so recovery is
// deterministic.
func (s *Store) Recovered() Recovered {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Recovered{
		Epoch:      s.state.epoch,
		VotedEpoch: s.state.voted,
		Cycle:      s.state.cycle,
		State:      s.state.toStateSync(),
	}
}

// toStateSync renders the materialized state as a StateSync message.
func (st *memState) toStateSync() *wire.StateSync {
	msg := &wire.StateSync{
		Epoch:   st.epoch,
		Cycle:   st.cycle,
		Members: make([]wire.MemberState, 0, len(st.members)),
		Weights: make([]wire.JobWeight, 0, len(st.weights)),
	}
	ids := make([]uint64, 0, len(st.members))
	for id := range st.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		e := st.members[id]
		m := e.state
		if len(e.rules) > 0 {
			m.Rules = make([]wire.Rule, 0, len(e.rules))
			sids := make([]uint64, 0, len(e.rules))
			for sid := range e.rules {
				sids = append(sids, sid)
			}
			sort.Slice(sids, func(a, b int) bool { return sids[a] < sids[b] })
			for _, sid := range sids {
				m.Rules = append(m.Rules, e.rules[sid])
			}
		}
		msg.Members = append(msg.Members, m)
	}
	wids := make([]uint64, 0, len(st.weights))
	for id := range st.weights {
		wids = append(wids, id)
	}
	sort.Slice(wids, func(a, b int) bool { return wids[a] < wids[b] })
	for _, id := range wids {
		msg.Weights = append(msg.Weights, wire.JobWeight{JobID: id, Weight: st.weights[id]})
	}
	return msg
}

// Stats snapshots the store's telemetry.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:             s.opts.Dir,
		LogBytes:        s.logSize,
		LogRecords:      s.logRecords,
		AppendedRecords: s.appended,
		PendingBytes:    len(s.pending),
		Fsyncs:          s.fsyncs,
		FsyncLast:       s.fsyncLast,
		FsyncMax:        s.fsyncMax,
		Snapshots:       s.snapshots,
		NextLSN:         s.nextLSN,
		SnapshotLSN:     s.snapLSN,
		Replay:          s.replay,
	}
	if s.fsyncs > 0 {
		st.FsyncMean = s.fsyncTotal / time.Duration(s.fsyncs)
	}
	if !s.lastSnapshot.IsZero() {
		st.SnapshotAge = time.Since(s.lastSnapshot)
	}
	return st
}

// Close flushes everything pending and closes the log. Further appends
// return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.mu.Lock()
	s.durable.Broadcast()
	err := s.flushErr
	s.mu.Unlock()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- record and snapshot codec -------------------------------------------

// readFrame parses one framed record off the front of buf, verifying the
// CRC. It returns the payload, the total frame length consumed, or an
// error for a short, oversized, or corrupt frame.
func readFrame(buf []byte) (payload []byte, n int, err error) {
	if len(buf) < frameHeaderLen {
		return nil, 0, fmt.Errorf("store: short frame header (%d bytes)", len(buf))
	}
	plen := binary.LittleEndian.Uint32(buf)
	crc := binary.LittleEndian.Uint32(buf[4:])
	if plen > maxRecordLen {
		return nil, 0, fmt.Errorf("store: frame length %d exceeds limit", plen)
	}
	if frameHeaderLen+int(plen) > len(buf) {
		return nil, 0, fmt.Errorf("store: torn frame: %d payload bytes of %d", len(buf)-frameHeaderLen, plen)
	}
	payload = buf[frameHeaderLen : frameHeaderLen+int(plen)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, errors.New("store: frame CRC mismatch")
	}
	return payload, frameHeaderLen + int(plen), nil
}

// Byte-level append helpers matching the wire package's fixed-width
// primitive encodings (uvarint integers, fixed 8-byte LE floats,
// length-prefixed strings), so wire.Decoder parses them back.
func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodeRecordBody appends rec's payload (LSN, kind, body) to buf.
func encodeRecordBody(buf []byte, rec record) []byte {
	buf = appendUvarint(buf, rec.lsn)
	buf = append(buf, rec.kind)
	switch rec.kind {
	case kindRegister:
		m := &rec.member
		buf = append(buf, byte(m.Role))
		buf = appendUvarint(buf, m.ID)
		buf = appendUvarint(buf, m.JobID)
		buf = appendFloat(buf, m.Weight)
		buf = appendString(buf, m.Addr)
		buf = appendUvarint(buf, uint64(len(m.Stages)))
		for i := range m.Stages {
			st := &m.Stages[i]
			buf = appendUvarint(buf, st.ID)
			buf = appendUvarint(buf, st.JobID)
			buf = appendFloat(buf, st.Weight)
			buf = appendString(buf, st.Addr)
		}
	case kindEvict:
		buf = appendUvarint(buf, rec.childID)
	case kindRules:
		buf = appendUvarint(buf, rec.cycle)
		buf = appendUvarint(buf, rec.childID)
		buf = appendUvarint(buf, uint64(len(rec.rules)))
		for i := range rec.rules {
			r := &rec.rules[i]
			buf = appendUvarint(buf, r.StageID)
			buf = appendUvarint(buf, r.JobID)
			buf = append(buf, byte(r.Action))
			for _, v := range r.Limit {
				buf = appendFloat(buf, v)
			}
		}
	case kindWeight:
		buf = appendUvarint(buf, rec.jobID)
		buf = appendFloat(buf, rec.weight)
	case kindEpoch, kindVote:
		buf = appendUvarint(buf, rec.epoch)
	}
	return buf
}

// parseRecord decodes one record payload. It rejects unknown kinds,
// trailing bytes, and oversized collections — anything it accepts must
// re-encode byte-identically (the WAL fuzz target holds it to that).
func parseRecord(payload []byte) (record, error) {
	var rec record
	d := wire.NewDecoder(payload)
	rec.lsn = d.Uint64()
	rec.kind = d.Byte()
	switch rec.kind {
	case kindRegister:
		m := &rec.member
		m.Role = wire.Role(d.Byte())
		m.ID = d.Uint64()
		m.JobID = d.Uint64()
		m.Weight = d.Float64()
		m.Addr = d.String()
		n := d.Length()
		if d.Err() == nil && n > 0 {
			m.Stages = make([]wire.StageEntry, n)
			for i := range m.Stages {
				st := &m.Stages[i]
				st.ID = d.Uint64()
				st.JobID = d.Uint64()
				st.Weight = d.Float64()
				st.Addr = d.String()
			}
		}
	case kindEvict:
		rec.childID = d.Uint64()
	case kindRules:
		rec.cycle = d.Uint64()
		rec.childID = d.Uint64()
		n := d.Length()
		if d.Err() == nil && n > 0 {
			rec.rules = make([]wire.Rule, n)
			for i := range rec.rules {
				r := &rec.rules[i]
				r.StageID = d.Uint64()
				r.JobID = d.Uint64()
				r.Action = wire.RuleAction(d.Byte())
				for j := range r.Limit {
					r.Limit[j] = d.Float64()
				}
			}
		}
	case kindWeight:
		rec.jobID = d.Uint64()
		rec.weight = d.Float64()
	case kindEpoch, kindVote:
		rec.epoch = d.Uint64()
	default:
		if d.Err() == nil {
			return rec, fmt.Errorf("store: unknown record kind %d", rec.kind)
		}
	}
	if err := d.Finish(); err != nil {
		return rec, fmt.Errorf("store: record: %w", err)
	}
	return rec, nil
}

// encodeSnapshot appends the snapshot payload: the watermark LSN, the
// voted epoch, then the state as a StateSync message in the fixed-width
// encoding.
func encodeSnapshot(buf []byte, watermark uint64, st memState) []byte {
	buf = appendUvarint(buf, watermark)
	buf = appendUvarint(buf, st.voted)
	return wire.Encode(buf, st.toStateSync())
}

// decodeSnapshot parses a snapshot payload.
func decodeSnapshot(payload []byte) (watermark, voted uint64, sync *wire.StateSync, err error) {
	d := wire.NewDecoder(payload)
	watermark = d.Uint64()
	voted = d.Uint64()
	if err := d.Err(); err != nil {
		return 0, 0, nil, err
	}
	rest := payload[len(payload)-d.Remaining():]
	m, err := wire.Decode(rest)
	if err != nil {
		return 0, 0, nil, err
	}
	ss, ok := m.(*wire.StateSync)
	if !ok {
		return 0, 0, nil, fmt.Errorf("store: snapshot holds %s, want StateSync", m.Type())
	}
	return watermark, voted, ss, nil
}
