package storage

import (
	"fmt"
	"sync/atomic"
)

// Version is one committed record image in a chain ordered newest-first
// by commit LSN. A node is immutable from publication until pruning cuts
// it out of its chain (next is only ever cut to nil, never re-linked), so
// readers walk chains with plain atomic loads and no locks. A cut node is
// unreachable (see InstallVersion) and may be recycled as a new version.
type Version struct {
	lsn  uint64
	data []byte
	next atomic.Pointer[Version]
}

// LSN returns the commit LSN this version was installed with.
func (v *Version) LSN() uint64 { return v.lsn }

// VersionFree is one worker's free list of version nodes: InstallVersion
// pushes what its prune cuts and pops the node for the next version, so a
// worker that installs in steady state allocates nothing. Single-owner —
// never shared between goroutines. The zero value is an empty list.
type VersionFree struct {
	// cuts is a stack of cut chain tails, each still linked through next.
	// A tail is unlinked one node per pop, so push never touches the cold
	// nodes it is handed.
	cuts []*Version
}

// pop returns a node whose buffer holds size bytes, or nil when the list
// is empty. A node cut from a table with smaller records cannot hold the
// image and is left to the collector.
func (f *VersionFree) pop(size int) *Version {
	if f == nil || len(f.cuts) == 0 {
		return nil
	}
	top := len(f.cuts) - 1
	n := f.cuts[top]
	if next := n.next.Load(); next != nil {
		f.cuts[top] = next
	} else {
		f.cuts = f.cuts[:top]
	}
	if cap(n.data) < size {
		return nil
	}
	n.data = n.data[:size]
	return n
}

// push takes ownership of the nil-terminated chain tail starting at cut.
func (f *VersionFree) push(cut *Version) {
	if f != nil {
		f.cuts = append(f.cuts, cut)
	}
}

// newVersion allocates a node for a size-byte image.
//
//orthrus:coldpath reached only while the worker's free list is empty: after the first write of every record each install cuts as many nodes as it links
func newVersion(size int) *Version {
	return &Version{data: make([]byte, size)}
}

// VersionedTable wraps a FixedTable with a per-record version chain: the
// arena row stays the engines' locked read/write image (newest,
// possibly uncommitted under a writer's lock), while the chain holds
// committed images stamped with their commit LSN. Read-only snapshot
// transactions resolve records exclusively through the chain — never the
// live arena bytes — so they observe a committed prefix without locks.
//
// Invariant: every row's chain is non-empty from construction onward.
// Each row starts on its own LSN-0 base node; the base nodes are one
// array and their images one arena, allocated with the table, so loading
// a row allocates nothing. A snapshot read can therefore always resolve —
// failure to find a version ≤ snapshot means the pruning watermark
// protocol was violated and is a panic, not an error.
type VersionedTable struct {
	*FixedTable
	chains    []atomic.Pointer[Version]
	bases     []Version
	watermark atomic.Uint64
}

// NewVersionedTable builds a versioned fixed table whose every row
// resolves to a zero image at any snapshot.
func NewVersionedTable(name string, numRecords uint64, recordSize int) *VersionedTable {
	t := &VersionedTable{
		FixedTable: NewFixedTable(name, numRecords, recordSize),
		chains:     make([]atomic.Pointer[Version], numRecords),
		bases:      make([]Version, numRecords),
	}
	images := make([]byte, len(t.arena))
	for i := range t.bases {
		off := i * recordSize
		t.bases[i].data = images[off : off+recordSize : off+recordSize]
		t.chains[i].Store(&t.bases[i])
	}
	return t
}

// Insert implements Table: it is the load path (bulk population before
// transactions run, and recovery) and makes the row's chain one LSN-0
// version holding the loaded image, so snapshot readers see it and not
// zeroes. While the row still stands on its own base node — LSN 0, which
// no commit carries, so the node was never recycled — that is a copy into
// the base image; once the row has committed history the chain is
// replaced by a fresh node. Concurrent Inserts on distinct keys are safe
// (they touch disjoint rows, base nodes and chain heads); like
// FixedTable's, an Insert is not safe concurrently with transactions on
// the same key.
func (t *VersionedTable) Insert(key uint64, value []byte) error {
	if err := t.FixedTable.Insert(key, value); err != nil {
		return err
	}
	base := &t.bases[key]
	if t.chains[key].Load() != base || base.lsn != 0 {
		base = newVersion(t.recSize)
		t.chains[key].Store(base)
	}
	copy(base.data, t.Get(key))
	return nil
}

// InstallVersion publishes the row's current arena bytes as the
// committed image for lsn, pushing it onto the chain head and pruning
// the tail. The caller must hold whatever logical lock made the arena
// write exclusive (the engines call this at pre-commit, after logic and
// undo-reset, before lock release) and must ensure — via WAL appender
// mutex or CommitClock publication order — that no snapshot at or above
// lsn can begin until InstallVersion returns.
//
// free, when given, is the calling worker's free list: the new node is
// popped from it and the nodes the prune cuts are pushed onto it.
// Without one the node is allocated and cut nodes go to the collector.
//
// Pruning is by the watermark alone: the newest node with lsn ≤ watermark
// is what a reader at the oldest registered snapshot resolves to, and
// everything behind it is cut. No reader can hold or reach a cut node:
// the watermark is ≤ every registered snapshot (engine.Snapshots), so a
// reader's walk stops at or before the kept node, and a snapshot that
// would stop behind it is refused registration. A node that could take
// the kept node's place for a registered reader would need an LSN at or
// below that reader's snapshot, which the publication order above rules
// out for any install that starts after the reader registered. That is
// what makes recycling safe, and ReadVersion panics if it is ever broken.
func (t *VersionedTable) InstallVersion(key, lsn uint64, free ...*VersionFree) {
	var fl *VersionFree
	if len(free) > 0 {
		fl = free[0]
	}
	// Find the cut in the old chain before touching the new node: the two
	// are independent cache misses and this order lets them overlap. Every
	// chain ends in a node at or below the watermark (its base, or the node
	// an earlier prune kept, and the watermark never falls), so the walk
	// stops on a node.
	head := &t.chains[key]
	prev := head.Load()
	keep := prev
	w := t.watermark.Load()
	for keep.lsn > w {
		keep = keep.next.Load()
	}
	cut := keep.next.Load()

	n := fl.pop(t.recSize)
	if n == nil {
		n = newVersion(t.recSize)
	}
	n.lsn = lsn
	copy(n.data, t.Get(key))
	n.next.Store(prev)
	head.Store(n)

	if lsn <= w {
		keep, cut = n, prev // the new node itself covers the watermark
	}
	if cut != nil {
		keep.next.Store(nil)
		fl.push(cut)
	}
}

// SetWatermark publishes the oldest-active-snapshot LSN that future
// prunes must preserve. The caller (engine.Snapshots) guarantees no
// registered snapshot is older than w at the moment of each prune, and
// serializes its calls. The watermark only rises: history cut under a
// higher one is gone, so a lower value is ignored.
func (t *VersionedTable) SetWatermark(w uint64) {
	if w > t.watermark.Load() {
		t.watermark.Store(w)
	}
}

// Watermark returns the last published prune watermark.
func (t *VersionedTable) Watermark() uint64 { return t.watermark.Load() }

// ChainLen returns the number of versions key's chain holds: the
// versions newer than the watermark at its last install, plus one.
func (t *VersionedTable) ChainLen(key uint64) int {
	n := 0
	for cur := t.chains[key].Load(); cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}

// ReadVersion resolves key to the newest committed image with
// LSN ≤ snap, plus the number of chain nodes traversed. The returned
// slice is version memory that stays untouched while the caller's
// snapshot is registered — safe to read without any lock. A miss (no
// such version) means the watermark protocol failed to protect an active
// snapshot and panics loudly rather than returning torn data.
func (t *VersionedTable) ReadVersion(key, snap uint64) ([]byte, int) {
	if key >= t.Len() {
		return nil, 0
	}
	hops := 0
	for cur := t.chains[key].Load(); cur != nil; cur = cur.next.Load() {
		hops++
		if cur.lsn <= snap {
			return cur.data, hops
		}
	}
	panic(fmt.Sprintf("storage: table %s key %d has no version ≤ snapshot %d (watermark %d pruned an active snapshot's history)",
		t.Name(), key, snap, t.watermark.Load()))
}

// ScanVersions walks keys in [lo, hi) in ascending order, resolving each
// through its version chain at snap, and returns the total chain hops.
// Fixed tables admit no phantoms and a registered snapshot's versions
// stay untouched, so the scan is consistent at snap with zero locks.
func (t *VersionedTable) ScanVersions(lo, hi, snap uint64, fn func(key uint64, rec []byte) bool) int {
	if hi > t.Len() {
		hi = t.Len()
	}
	hops := 0
	for key := lo; key < hi; key++ {
		rec, h := t.ReadVersion(key, snap)
		hops += h
		if !fn(key, rec) {
			break
		}
	}
	return hops
}
