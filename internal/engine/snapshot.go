package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// MVCC snapshot reads: the read-only fast path shared by all four
// engines. A transaction declared txn.Txn.ReadOnly takes a snapshot LSN
// from the commit frontier and resolves every record through its version
// chain (storage.VersionedTable) — zero locks, zero CC messages, no gap
// locks. The snapshot is immutable, so scans are phantom-free by
// construction and the read-only path can never block or abort a writer.
//
// The frontier is chosen so the snapshot is always a committed — and,
// with a WAL, durable — prefix:
//
//   - WAL on: the snapshot is wal.Log.DurableLSN(), the group-commit
//     acknowledgment frontier. Writers install versions inside
//     Appender.CommitWith, under the appender mutex, before the record
//     can be collected by the flusher — so the durable frontier cannot
//     reach an LSN whose versions are not yet installed. A snapshot
//     reader therefore sees only acked writes, preserving PR 4's
//     committed-prefix guarantee, and skips the WAL entirely (everything
//     it observed is already durable, so it acknowledges inline).
//
//   - WAL off: the snapshot comes from the engine's CommitClock, whose
//     frontier advances past a stamp only after that transaction's
//     versions are fully installed (publish-after-install below).

// CommitClock stamps versioned commits when no WAL is configured and
// tracks the fully-installed frontier. Reserve hands out a dense stamp
// sequence; each committer installs its versions and then Publishes its
// stamp; Frontier returns the largest S such that every stamp ≤ S has
// been published. A reader snapshotting at Frontier() can never observe
// a half-applied transaction: all writes of every stamp it covers are
// installed, and (because writers install before releasing their locks,
// and lock conflicts order dependent commits) every transaction it
// depends on has a smaller stamp.
type CommitClock struct {
	next     atomic.Uint64
	frontier atomic.Uint64
	// slots is a ring of published stamps: slot s%N holds s once s is
	// published. The ring is far larger than any engine's in-flight
	// commit window (installs are synchronous on worker threads), and
	// Reserve guards the wrap explicitly.
	slots [clockSlots]atomic.Uint64
}

const clockSlots = 1 << 14

// Reserve assigns the next commit stamp.
func (c *CommitClock) Reserve() uint64 {
	s := c.next.Add(1)
	for s-c.frontier.Load() >= clockSlots {
		// Unreachable in practice (would need 16k commits between a
		// worker's Reserve and Publish); spin rather than corrupt the ring.
	}
	return s
}

// Publish marks stamp s fully installed and advances the frontier over
// the contiguous published prefix.
func (c *CommitClock) Publish(s uint64) {
	c.slots[s&(clockSlots-1)].Store(s)
	for {
		f := c.frontier.Load()
		if c.slots[(f+1)&(clockSlots-1)].Load() != f+1 {
			return
		}
		c.frontier.CompareAndSwap(f, f+1)
	}
}

// Frontier returns the fully-installed commit stamp frontier.
func (c *CommitClock) Frontier() uint64 { return c.frontier.Load() }

// Last returns the highest stamp reserved so far (the clock's tail, used
// for staleness accounting).
func (c *CommitClock) Last() uint64 { return c.next.Load() }

// SnapshotConfig tunes the snapshot tracker. The zero value is ready to
// use.
type SnapshotConfig struct {
	// PruneEvery recomputes the version-chain watermark (the oldest
	// active snapshot) and pushes it to every versioned table once per
	// this many snapshot begins and once per this many versioned commits,
	// counted per worker. 0 means the default (64); negative panics.
	PruneEvery int
}

const defaultPruneEvery = 64

// Validate panics on a negative PruneEvery (zero means the default).
func (c SnapshotConfig) Validate() {
	if c.PruneEvery < 0 {
		panic(fmt.Sprintf("engine: SnapshotConfig.PruneEvery %d is negative", c.PruneEvery))
	}
}

// snapSlot is one worker's active-snapshot announcement and its count of
// begins since it last recomputed the watermark (owner-only), padded so
// concurrent Begin/End on different workers never false-share.
type snapSlot struct {
	v      atomic.Uint64
	begins uint64
	_      [48]byte
}

// snapIdle marks a worker with no snapshot in flight.
const snapIdle = ^uint64(0)

// Snapshots is the per-session snapshot tracker: it hands out snapshot
// LSNs, tracks which are active (one per worker), and periodically
// computes the watermark — the oldest LSN any active or future snapshot
// can need — pushing it to every versioned table as the prune floor.
// Both sides recompute it, each worker on every PruneEvery-th snapshot
// begin and every PruneEvery-th versioned commit, so chains stay short
// whether or not anybody reads.
//
// Premises: the frontier never falls, pruners are serialized (pruneMu),
// and the barrier and the watermark (storage.VersionedTable.SetWatermark
// ignores a lower one) only ever rise, with watermark ≤ barrier ≤ the
// frontier the pruner read. Registration is
// announce-then-verify: Begin stores the candidate snapshot f in the
// worker's slot and proceeds only if it then reads barrier ≤ f; otherwise
// it retries with a fresher frontier, which is ≥ the barrier it lost to.
// The pruner walks the slots for a candidate, gives up if that would
// lower the barrier, publishes it, and walks the slots again, taking the
// minimum as the watermark. Under the total order of the atomics a
// reader's verify either precedes the barrier store — then its slot store
// precedes the second walk, so this watermark and every later one while
// it stays registered are ≤ f, and every earlier one is ≤ the barrier it
// read ≤ f — or follows it and reads a barrier > f, because the barrier
// never falls back to admit it. Either way no prune ever cuts history a
// registered snapshot still needs, which is exactly the invariant
// storage.VersionedTable.ReadVersion panics on and the one that lets
// InstallVersion recycle what it cuts.
type Snapshots struct {
	frontier func() uint64 // snapshot source: durable WAL frontier or CommitClock frontier
	tail     func() uint64 // newest assigned LSN/stamp, for staleness accounting
	clock    *CommitClock  // stamps versioned commits when no WAL is attached
	tables   []*storage.VersionedTable
	byID     []*storage.VersionedTable // table id → versioned table, nil when unversioned
	slots    []snapSlot
	barrier  atomic.Uint64
	every    uint64
	pruneMu  sync.Mutex
}

// versionedView returns db's versioned tables indexed by table id (nil
// entries for unversioned tables), or nil when the database has none.
func versionedView(db *storage.DB) []*storage.VersionedTable {
	view := make([]*storage.VersionedTable, db.NumTables())
	any := false
	for i := range view {
		if vt, ok := db.Table(i).(*storage.VersionedTable); ok {
			view[i] = vt
			any = true
		}
	}
	if !any {
		return nil
	}
	return view
}

// NewSnapshots builds the tracker for a session with the given worker
// count. It validates cfg even when it returns nil — which it does when
// db has no versioned tables (the engine then has no snapshot path and
// ReadOnly transactions fall back to its locking path). clock outlives
// the session: its stamps are in the version chains.
func NewSnapshots(db *storage.DB, log *wal.Log, clock *CommitClock, workers int, cfg SnapshotConfig) *Snapshots {
	cfg.Validate()
	byID := versionedView(db)
	if byID == nil {
		return nil
	}
	every := uint64(cfg.PruneEvery)
	if every == 0 {
		every = defaultPruneEvery
	}
	s := &Snapshots{byID: byID, slots: make([]snapSlot, workers), every: every, clock: clock}
	for _, vt := range byID {
		if vt != nil {
			s.tables = append(s.tables, vt)
		}
	}
	if log.Enabled() {
		s.frontier, s.tail = log.DurableLSN, log.LastLSN
	} else {
		s.frontier, s.tail = clock.Frontier, clock.Last
	}
	for i := range s.slots {
		s.slots[i].v.Store(snapIdle)
	}
	return s
}

// Begin registers a snapshot for worker and returns its LSN. At most one
// snapshot per worker may be active; End must follow.
func (s *Snapshots) Begin(worker int) uint64 {
	slot := &s.slots[worker]
	var f uint64
	for {
		f = s.frontier()
		slot.v.Store(f)
		if s.barrier.Load() <= f {
			break
		}
		// A concurrent prune may already have cut below f; retry with a
		// fresher frontier (it is ≥ the barrier, so this terminates).
	}
	if slot.begins++; slot.begins%s.every == 0 {
		s.prune()
	}
	return f
}

// End releases worker's active snapshot.
func (s *Snapshots) End(worker int) { s.slots[worker].v.Store(snapIdle) }

// oldest returns the minimum of f and every announced snapshot.
func (s *Snapshots) oldest(f uint64) uint64 {
	for i := range s.slots {
		if v := s.slots[i].v.Load(); v < f {
			f = v
		}
	}
	return f
}

// prune recomputes the watermark and pushes it to every versioned table.
// Serialized by pruneMu; concurrent callers skip rather than queue.
func (s *Snapshots) prune() {
	if !s.pruneMu.TryLock() {
		return
	}
	defer s.pruneMu.Unlock()
	cand := s.oldest(s.frontier())
	if cand <= s.barrier.Load() {
		// Nothing to gain, and the barrier never falls: a slot below it
		// is a registered reader the watermark already respects, or one
		// about to fail its verify.
		return
	}
	// Announce the candidate, then re-walk: a reader registering between
	// the walks either shows up in the second walk (w ≤ its snapshot) or
	// observes the barrier and retries in Begin. A slot below the last
	// watermark is of the second kind, and SetWatermark ignores it.
	s.barrier.Store(cand)
	w := s.oldest(cand)
	for _, vt := range s.tables {
		vt.SetWatermark(w)
	}
}

// Exec runs one ReadOnly transaction at a stable snapshot on worker's
// slot, accounting it in stats. Snapshot reads cannot conflict, so a
// Logic error is a bug in the transaction body, not an abort — it
// panics.
func (s *Snapshots) Exec(worker int, t *txn.Txn, ctx *SnapshotCtx, stats *metrics.ThreadStats) {
	snap := s.Begin(worker)
	ctx.snaps, ctx.stats, ctx.snap = s, stats, snap
	stats.SnapTxns++
	stats.SnapStaleLSN += s.tail() - snap
	err := t.Logic(ctx)
	s.End(worker)
	if err != nil {
		panic(fmt.Sprintf("engine: read-only snapshot transaction failed: %v", err))
	}
	stats.Committed++
}

// SnapshotCtx implements txn.Ctx against an immutable snapshot. Reads
// and scans resolve through version chains; writes panic — the caller
// declared the transaction ReadOnly.
type SnapshotCtx struct {
	snaps *Snapshots
	stats *metrics.ThreadStats
	snap  uint64
}

func (c *SnapshotCtx) table(table int) *storage.VersionedTable {
	if table < len(c.snaps.byID) {
		if vt := c.snaps.byID[table]; vt != nil {
			return vt
		}
	}
	panic(fmt.Sprintf("engine: ReadOnly transaction read unversioned table %d (declare it Layout.Versioned or drop the ReadOnly flag)", table))
}

// Read implements txn.Ctx.
func (c *SnapshotCtx) Read(table int, key uint64) ([]byte, error) {
	rec, hops := c.table(table).ReadVersion(key, c.snap)
	if rec == nil {
		return nil, fmt.Errorf("engine: snapshot read of out-of-range key %d", key)
	}
	c.stats.SnapRecords++
	c.stats.SnapHops += uint64(hops)
	return rec, nil
}

// Write implements txn.Ctx.
func (c *SnapshotCtx) Write(table int, key uint64) ([]byte, error) {
	panic("engine: ReadOnly transaction attempted a write")
}

// Insert implements txn.Ctx.
func (c *SnapshotCtx) Insert(table int, key uint64, value []byte) error {
	panic("engine: ReadOnly transaction attempted an insert")
}

// Scan implements txn.Ctx: an in-order walk of [lo, hi) at the
// snapshot. No gap locks and no reconnaissance — versioned tables are
// fixed layouts, and the snapshot is immutable, so the scan is
// phantom-free by construction.
func (c *SnapshotCtx) Scan(table int, lo, hi uint64, fn func(key uint64, rec []byte) error) error {
	vt := c.table(table)
	var err error
	rows := uint64(0)
	hops := vt.ScanVersions(lo, hi, c.snap, func(key uint64, rec []byte) bool {
		rows++
		err = fn(key, rec)
		return err == nil
	})
	c.stats.Scanned += rows
	c.stats.SnapRecords += rows
	c.stats.SnapHops += uint64(hops)
	return err
}

// VersionSet is one worker's versioned-commit state: which versioned
// records the current transaction wrote, so the engine can install their
// after-images at pre-commit (deduplicated the same way wal.Appender.Note
// is: linear scan over the short set), the free list its installs recycle
// version nodes through, and its count of versioned commits.
type VersionSet struct {
	snaps   *Snapshots // nil when the database has no versioned table: the set stays empty
	writes  []versionWrite
	free    storage.VersionFree
	commits uint64
}

type versionWrite struct {
	vt  *storage.VersionedTable
	key uint64
}

// VersionSet returns a worker's versioned-commit state for the session s
// tracks. A nil tracker (no versioned tables) yields a set that notes
// nothing.
func (s *Snapshots) VersionSet() VersionSet { return VersionSet{snaps: s} }

// Versioned returns table's versioned table, or nil when it has none.
func (v *VersionSet) Versioned(table int) *storage.VersionedTable {
	if v.snaps == nil || table >= len(v.snaps.byID) {
		return nil
	}
	return v.snaps.byID[table]
}

// Note records a write to table's key; unversioned tables are ignored.
func (v *VersionSet) Note(table int, key uint64) {
	vt := v.Versioned(table)
	if vt == nil {
		return
	}
	for _, w := range v.writes {
		if w.vt == vt && w.key == key {
			return
		}
	}
	v.writes = append(v.writes, versionWrite{vt: vt, key: key})
}

// Len returns the number of distinct versioned records written.
func (v *VersionSet) Len() int { return len(v.writes) }

// Install publishes every noted record's current bytes as the committed
// image for lsn. Caller holds the transaction's locks.
func (v *VersionSet) Install(lsn uint64) {
	for _, w := range v.writes {
		w.vt.InstallVersion(w.key, lsn, &v.free)
	}
}

// Reset clears the set (begin and abort paths).
func (v *VersionSet) Reset() { v.writes = v.writes[:0] }

// CommitVersions stamps and installs a transaction's versioned
// after-images at pre-commit, while the caller still holds its locks,
// then hands the commit to the WAL (ack runs when durable). With an
// appender, the stamp is the WAL LSN and installation happens inside
// CommitWith (see the package comment for why that orders against the
// durable frontier); without one, the stamp comes from the session's
// CommitClock, whose frontier advances only after installation
// completes. With neither versions nor a WAL it is a no-op. ack is
// ignored when a is nil.
//
// Every PruneEvery-th versioned commit of a worker recomputes the
// watermark, so a session nobody reads from still prunes its chains.
func CommitVersions(a *wal.Appender, vs *VersionSet, stats *metrics.ThreadStats, ack func()) {
	n := vs.Len()
	if n == 0 {
		if a != nil {
			a.Commit(ack)
		}
		return
	}
	s := vs.snaps
	if a != nil {
		a.CommitWith(vs.Install, ack)
	} else {
		lsn := s.clock.Reserve()
		vs.Install(lsn)
		s.clock.Publish(lsn)
	}
	vs.Reset()
	stats.Installed += uint64(n)
	if vs.commits++; vs.commits%s.every == 0 {
		s.prune()
	}
}
