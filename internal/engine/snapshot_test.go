package engine

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// snapFixture is a one-record versioned table, its tracker (no WAL: the
// CommitClock is the frontier) and one worker's commit state.
type snapFixture struct {
	vt    *storage.VersionedTable
	s     *Snapshots
	vs    VersionSet
	stats metrics.ThreadStats
}

func newSnapFixture(workers int, cfg SnapshotConfig) *snapFixture {
	db := storage.NewDB()
	id := db.Create(storage.Layout{Name: "t", NumRecords: 1, RecordSize: 8, Versioned: true})
	f := &snapFixture{vt: db.Table(id).(*storage.VersionedTable)}
	f.s = NewSnapshots(db, nil, new(CommitClock), workers, cfg)
	f.vs = f.s.VersionSet()
	return f
}

// commit runs n single-write commits of record 0 through the engines'
// pre-commit path; each stores its ordinal in the record.
func (f *snapFixture) commit(n int) {
	for ; n > 0; n-- {
		storage.AddU64(f.vt.Get(0), 0, 1)
		f.vs.Note(0, 0)
		CommitVersions(nil, &f.vs, &f.stats, nil)
	}
}

// The interleaving that let a reader in below a watermark already
// applied, replayed as plain calls: the barrier used to be stored
// unconditionally, so a pruner that saw a stale announcement lowered it
// and the announcer's verify then passed.
func TestPruneBarrierNeverFalls(t *testing.T) {
	f := newSnapFixture(2, SnapshotConfig{PruneEvery: 1 << 30}) // prunes happen where the script says
	s := f.s

	f.commit(90)
	stale := s.frontier() // reader R loads its candidate, 90, and is descheduled
	f.commit(30)
	s.prune() // P1: nobody is announced, so barrier = watermark = frontier = 120
	if got := f.vt.Watermark(); got != 120 {
		t.Fatalf("watermark after P1 = %d, want 120", got)
	}
	f.commit(1) // this install cuts everything below version 120
	if got := f.vt.ChainLen(0); got != 2 {
		t.Fatalf("chain length after the cut = %d, want 2 (121, 120)", got)
	}

	s.slots[0].v.Store(stale) // R announces 90
	s.prune()                 // P2 walks the slots and sees it
	if got := s.barrier.Load(); got < 120 {
		t.Fatalf("P2 lowered the barrier to %d: R's verify (barrier ≤ %d) would now admit a snapshot below watermark 120", got, stale)
	}
	if got := f.vt.Watermark(); got < 120 {
		t.Fatalf("P2 lowered the watermark to %d", got)
	}

	// R's verify fails against the barrier, so Begin retries with a
	// frontier that has not been pruned away, and its read resolves.
	snap := s.Begin(0)
	if snap < 120 {
		t.Fatalf("Begin admitted snapshot %d below watermark 120", snap)
	}
	rec, _ := f.vt.ReadVersion(0, snap) // panics if history at snap was cut
	if got := storage.GetU64(rec, 0); got != snap {
		t.Fatalf("snapshot %d read commit %d", snap, got)
	}

	// While R holds 121 the watermark stops there; once it ends, it moves.
	f.commit(10)
	s.prune()
	if got := f.vt.Watermark(); got != snap {
		t.Fatalf("watermark with snapshot %d registered = %d", snap, got)
	}
	s.End(0)
	s.prune()
	if got, want := f.vt.Watermark(), s.frontier(); got != want {
		t.Fatalf("watermark after End = %d, want the frontier %d", got, want)
	}
}

// A session nobody reads from still advances its watermark: every
// PruneEvery-th versioned commit recomputes it, so a chain holds at most
// the versions of one such interval and an install walks at most that.
func TestWatermarkAdvancesWithoutReaders(t *testing.T) {
	const every = 8
	f := newSnapFixture(1, SnapshotConfig{PruneEvery: every})
	for i := 1; i <= 1000; i++ {
		f.commit(1)
		// Versions newer than the watermark (< every), the one at it, and
		// the one install that ran before the recomputation took effect.
		if got := f.vt.ChainLen(0); got > every+1 {
			t.Fatalf("after %d write-only commits the chain holds %d versions, want ≤ %d", i, got, every+1)
		}
	}
	if got := f.vt.Watermark(); got != 1000 {
		t.Fatalf("watermark = %d after 1000 commits with PruneEvery %d, want 1000", got, every)
	}
	if f.stats.Installed != 1000 {
		t.Fatalf("Installed = %d", f.stats.Installed)
	}
}
