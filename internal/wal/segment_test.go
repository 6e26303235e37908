package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
)

// rec builds one single-write record for table 0 carrying lsn in its value.
func rec(lsn uint64, key uint64) []byte {
	val := make([]byte, 8)
	storage.PutI64(val, 0, int64(lsn))
	return appendRecord(nil, lsn, []redoWrite{{table: 0, key: key, val: val}})
}

func segDB(n uint64) *storage.DB {
	db := storage.NewDB()
	db.Create(storage.Layout{Name: "t", NumRecords: n, RecordSize: 8})
	return db
}

// The log must rotate segments at the configured size, and only at sync
// boundaries: every sealed segment is a self-contained stream of whole,
// durable records.
func TestMemSegmentsRotateAtSyncBoundaries(t *testing.T) {
	dev := NewMemSegments(256)
	l := NewLog(dev, Group(4, 100*time.Microsecond))
	a := l.NewAppender(nil)
	for i := uint64(0); i < 64; i++ {
		val := make([]byte, 8)
		storage.PutI64(val, 0, int64(i))
		a.Note(0, i%8, val)
		done := make(chan struct{})
		a.Commit(func() { close(done) })
		<-done
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	infos := dev.Segments()
	sealed := 0
	for _, in := range infos {
		if in.Sealed {
			sealed++
			if in.Bytes < 256 {
				t.Fatalf("sealed segment holds %d bytes, below the rotation threshold", in.Bytes)
			}
		}
	}
	if sealed < 2 {
		t.Fatalf("expected multiple sealed segments, got %d of %d", sealed, len(infos))
	}
	// Every segment must decode cleanly end to end — rotation never
	// splits a record.
	total := 0
	for i, seg := range dev.CrashSegments() {
		for len(seg) > 0 {
			_, n, ok := decodeRecord(seg)
			if !ok {
				t.Fatalf("segment %d holds a torn record", i)
			}
			seg = seg[n:]
			total++
		}
	}
	if total != 64 {
		t.Fatalf("segments hold %d records, want 64", total)
	}
	// And replay across the segments must rebuild all 64 commits.
	db := segDB(8)
	st := Replay(dev.CrashSegments(), 0, 2, db)
	if st.Applied != 64 || st.AppliedLSN != 64 || st.Torn {
		t.Fatalf("replay: %+v", st)
	}
}

// Truncate drops exactly the sealed segments whose every record is at or
// below the cut; the active segment and segments straddling the cut stay.
func TestMemSegmentsTruncateOnlyWhollyBelow(t *testing.T) {
	dev := NewMemSegments(64)
	// Three sealed segments with max LSNs 2, 4, 6 and an active tail.
	for _, lsns := range [][]uint64{{1, 2}, {3, 4}, {5, 6}} {
		for _, l := range lsns {
			dev.Write(rec(l, l))
		}
		dev.Sync()
		dev.Mark(lsns[1])
	}
	dev.Write(rec(7, 7))
	dev.Sync()
	dev.Mark(7) // active: below threshold only if 7's record < 64B; force check below
	infos := dev.Segments()
	if len(infos) < 3 {
		t.Fatalf("expected at least 3 segments, got %d", len(infos))
	}
	if n := dev.Truncate(4); n != 2 {
		t.Fatalf("Truncate(4) dropped %d segments, want 2 (maxLSN 2 and 4)", n)
	}
	if n := dev.Truncate(4); n != 0 {
		t.Fatalf("second Truncate(4) dropped %d segments, want 0", n)
	}
	if dev.Truncated() != 2 {
		t.Fatalf("Truncated() = %d, want 2", dev.Truncated())
	}
	// The surviving segments still replay LSNs 5..7 after a checkpoint at 4.
	db := segDB(8)
	st := Replay(dev.CrashSegments(), 4, 1, db)
	if st.Applied != 3 || st.AppliedLSN != 7 {
		t.Fatalf("replay after truncation: %+v", st)
	}
}

// Replay must skip records at or below the checkpoint LSN even when they
// sit in surviving segments (the flusher writes buffers in steal order,
// so late segments can carry early LSNs), and the frontier must continue
// exactly from the checkpoint.
func TestReplaySkipsBelowCheckpoint(t *testing.T) {
	// Segment A: LSNs 2, 5; segment B: 1, 4; segment C: 3, 6.
	segA := append(rec(2, 2), rec(5, 5)...)
	segB := append(rec(1, 1), rec(4, 4)...)
	segC := append(rec(3, 3), rec(6, 6)...)
	segs := [][]byte{segA, segB, segC}

	for _, workers := range []int{1, 3} {
		db := segDB(8)
		st := Replay(segs, 3, workers, db)
		if st.Scanned != 6 || st.Skipped != 3 || st.Applied != 3 {
			t.Fatalf("workers=%d: %+v", workers, st)
		}
		if st.AppliedLSN != 3+uint64(st.Applied) {
			t.Fatalf("workers=%d: frontier %d does not continue from checkpoint", workers, st.AppliedLSN)
		}
		// Keys 1..3 (LSN ≤ 3) must stay untouched; keys 4..6 replayed.
		for k := uint64(1); k <= 3; k++ {
			if got := storage.GetI64(db.Table(0).Get(k), 0); got != 0 {
				t.Fatalf("workers=%d: key %d replayed below the checkpoint (val %d)", workers, k, got)
			}
		}
		for k := uint64(4); k <= 6; k++ {
			if got := storage.GetI64(db.Table(0).Get(k), 0); got != int64(k) {
				t.Fatalf("workers=%d: key %d = %d, want %d", workers, k, got, k)
			}
		}
	}
}

// A gap above the checkpoint ends the applied prefix: records beyond the
// gap were never acknowledged.
func TestReplayStopsAtGap(t *testing.T) {
	segs := [][]byte{append(rec(4, 4), rec(6, 6)...)} // 5 missing
	db := segDB(8)
	st := Replay(segs, 3, 4, db)
	if st.Applied != 1 || st.AppliedLSN != 4 {
		t.Fatalf("%+v", st)
	}
	if got := storage.GetI64(db.Table(0).Get(6), 0); got != 0 {
		t.Fatal("record beyond the LSN gap was applied")
	}
}

// Parallel replay must produce byte-identical state to serial replay on a
// log with heavy per-key rewrite traffic (per-key order is the invariant
// the (table,key)-hash partitioning must preserve).
func TestReplayParallelMatchesSerial(t *testing.T) {
	var segs [][]byte
	var seg []byte
	lsn := uint64(0)
	for i := 0; i < 400; i++ {
		lsn++
		seg = append(seg, rec(lsn, lsn%16)...) // 16 keys, each rewritten ~25×
		if len(seg) > 512 {
			segs = append(segs, seg)
			seg = nil
		}
	}
	segs = append(segs, seg)

	serial, par := segDB(16), segDB(16)
	stS := Replay(segs, 0, 1, serial)
	stP := Replay(segs, 0, 8, par)
	if stS != stP {
		t.Fatalf("stats diverge: serial %+v parallel %+v", stS, stP)
	}
	if stS.Applied != 400 {
		t.Fatalf("applied %d, want 400", stS.Applied)
	}
	for k := uint64(0); k < 16; k++ {
		if !bytes.Equal(serial.Table(0).Get(k), par.Table(0).Get(k)) {
			t.Fatalf("key %d differs between serial and parallel replay", k)
		}
	}
}

// FileSegments must persist rotation across writes, reload in order, and
// physically delete truncated segment files.
func TestFileSegmentsRoundTripAndTruncate(t *testing.T) {
	dir := t.TempDir()
	dev, err := OpenFileSegments(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, lsns := range [][]uint64{{1, 2}, {3, 4}, {5, 6}} {
		for _, l := range lsns {
			if _, err := dev.Write(rec(l, l)); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.Sync(); err != nil {
			t.Fatal(err)
		}
		dev.Mark(lsns[1])
	}
	before, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(before) < 3 {
		t.Fatalf("expected at least 3 segment files, got %d", len(before))
	}
	if n := dev.Truncate(4); n != 2 {
		t.Fatalf("Truncate(4) removed %d files, want 2", n)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(after) != len(before)-2 {
		t.Fatalf("%d files remain, want %d", len(after), len(before)-2)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := LoadFileSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := segDB(8)
	st := Replay(segs, 4, 2, db)
	if st.Applied != 2 || st.AppliedLSN != 6 {
		t.Fatalf("replay from reloaded files: %+v", st)
	}

	// A fresh open must continue after the highest surviving sequence
	// number, never overwrite an existing segment.
	dev2, err := OpenFileSegments(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev2.Write(rec(7, 7)); err != nil {
		t.Fatal(err)
	}
	if err := dev2.Sync(); err != nil {
		t.Fatal(err)
	}
	dev2.Mark(7)
	if err := dev2.Close(); err != nil {
		t.Fatal(err)
	}
	segs2, err := LoadFileSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2 := segDB(8)
	st2 := Replay(segs2, 4, 2, db2)
	if st2.Applied != 3 || st2.AppliedLSN != 7 {
		t.Fatalf("replay after reopen: %+v", st2)
	}
	// Sanity: the directory holds only .wal files plus whatever Glob saw.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".wal" {
			t.Fatalf("unexpected file %q in segment dir", e.Name())
		}
	}
}

// A matching-but-unparseable segment name must fail Open rather than
// silently restarting the sequence at 0 over existing segment files.
func TestOpenFileSegmentsRejectsUnparseableNames(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-garbage.wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileSegments(dir, 0); err == nil {
		t.Fatal("OpenFileSegments accepted an unparseable segment name")
	}
}

// The tests below pin what MemSegments costs, by counts: one copy per
// written byte, no allocation once its segments exist, and recycled
// buffers that never leak a byte into a crash image.

// fillAndRotate writes chunk to the active segment (sync + mark after
// every write, as a flush pass does) until Mark rotates, and returns the
// next unused LSN.
func fillAndRotate(d *MemSegments, chunk []byte, lsn uint64) uint64 {
	for n := len(d.segs); len(d.segs) == n; lsn++ {
		d.Write(chunk)
		d.Sync()
		d.Mark(lsn)
	}
	return lsn
}

// bufferSet returns the identity (first byte's address) of every buffer
// the device owns, live and free.
func bufferSet(d *MemSegments) map[*byte]bool {
	set := map[*byte]bool{}
	for _, list := range [][]*memSegment{d.segs, d.free} {
		for _, s := range list {
			set[&s.buf[:1][0]] = true
		}
	}
	return set
}

func TestMemSegmentsSteadyStateAllocatesNothing(t *testing.T) {
	d := NewMemSegments(1 << 12)
	chunk := bytes.Repeat([]byte{0x5A}, 300)
	lsn := uint64(1)
	cycle := func() {
		lsn = fillAndRotate(d, chunk, lsn)
		if d.Truncate(lsn) != 1 {
			t.Fatal("cycle did not truncate exactly the segment it sealed")
		}
	}
	cycle() // the first cycle allocates the second segment; every later one recycles
	owned := bufferSet(d)
	before := d.Truncated()
	if allocs := testing.AllocsPerRun(128, cycle); allocs != 0 {
		t.Fatalf("write → sync → mark → truncate allocates %v per rotation, want 0", allocs)
	}
	if rotations := d.Truncated() - before; rotations < 64 {
		t.Fatalf("only %d rotations measured, want ≥ 64", rotations)
	}
	now := bufferSet(d)
	if len(owned) != 2 || len(now) != 2 {
		t.Fatalf("device owns %d buffers (was %d), want 2: one active, one recycled", len(now), len(owned))
	}
	for p := range now {
		if !owned[p] {
			t.Fatal("a buffer was replaced instead of reused")
		}
	}
}

// A crash image is a copy: recycling and overwriting the buffer it was
// taken from must not change it.
func TestMemSegmentsCrashImageSurvivesRecycling(t *testing.T) {
	d := NewMemSegments(1 << 10)
	first := d.segs[0]
	lsn := fillAndRotate(d, bytes.Repeat([]byte{0x11}, 100), 1)
	image := d.CrashSegments()
	if len(image) != 1 || len(image[0]) < 1<<10 {
		t.Fatalf("crash image: %d segments", len(image))
	}
	want := bytes.Repeat([]byte{0x11}, len(image[0]))
	d.Truncate(lsn)
	lsn = fillAndRotate(d, bytes.Repeat([]byte{0x22}, 100), lsn) // fills the second segment; rotation pops the first
	if d.segs[len(d.segs)-1] != first {
		t.Fatal("rotation did not reuse the truncated segment")
	}
	fillAndRotate(d, bytes.Repeat([]byte{0x33}, 100), lsn) // overwrites the recycled buffer
	if first.buf[0] != 0x33 {
		t.Fatal("the recycled buffer was not overwritten; the check below would prove nothing")
	}
	if !bytes.Equal(image[0], want) {
		t.Fatal("a crash image changed when the buffer it was copied from was recycled")
	}
}

// Torn-write semantics on a recycled buffer: only the synced prefix of
// the new contents survives a crash — neither the unsynced tail nor the
// longer stale contents behind it.
func TestMemSegmentsRecycledBufferHidesStaleTail(t *testing.T) {
	d := NewMemSegments(1 << 10)
	first := d.segs[0]
	lsn := fillAndRotate(d, bytes.Repeat([]byte{0xEE}, 128), 1)
	stale := len(first.buf)
	d.Truncate(lsn)
	lsn = fillAndRotate(d, bytes.Repeat([]byte{0x22}, 128), lsn)
	d.Truncate(lsn)
	if d.segs[len(d.segs)-1] != first || len(d.segs) != 1 {
		t.Fatalf("want the recycled segment alone and active, have %d segments", len(d.segs))
	}
	synced, torn := []byte("durable-prefix"), []byte("never-synced")
	d.Write(synced)
	d.Sync()
	d.Write(torn)
	if len(synced)+len(torn) >= stale {
		t.Fatal("the stale contents must be longer than the new ones")
	}
	if got := d.Segments()[0]; got.Bytes != len(synced)+len(torn) || got.Sealed || got.MaxLSN != 0 {
		t.Fatalf("recycled segment reports %+v", got)
	}
	image := d.CrashSegments()
	if len(image) != 1 || !bytes.Equal(image[0], synced) {
		t.Fatalf("crash image %q, want exactly the synced prefix %q", image, synced)
	}
}

// The device never owns more segments than its own high-water of live
// ones, so the free list is bounded by it too — under a truncation that
// lags, catches up and lags again.
func TestMemSegmentsFreeListBoundedByLiveHighWater(t *testing.T) {
	d := NewMemSegments(1 << 10)
	chunk := bytes.Repeat([]byte{7}, 200)
	lsn, sealedAt, highWater := uint64(1), []uint64{}, 1
	for round := 0; round < 200; round++ {
		lsn = fillAndRotate(d, chunk, lsn)
		sealedAt = append(sealedAt, lsn-1)
		highWater = max(highWater, len(d.segs))
		// Lag 0..6 segments behind, in a sawtooth.
		if lag := round % 7; len(sealedAt) > lag {
			cut := sealedAt[len(sealedAt)-1-lag]
			d.Truncate(cut)
		}
		if len(d.free) > highWater || len(d.free)+len(d.segs) > highWater {
			t.Fatalf("round %d: %d free + %d live segments, live high-water %d", round, len(d.free), len(d.segs), highWater)
		}
		if tail := d.segs[len(d.segs):cap(d.segs)]; len(tail) > 0 {
			for _, s := range tail {
				if s != nil {
					t.Fatalf("round %d: Truncate left a dropped segment reachable past len(segs)", round)
				}
			}
		}
	}
	if highWater < 7 || d.Truncated() < 150 {
		t.Fatalf("schedule too tame: high-water %d, %d truncated", highWater, d.Truncated())
	}
}

// A flush pass larger than the whole buffer still succeeds (ordinary
// append growth), stays in one segment, and replays.
func TestMemSegmentsOversizedPass(t *testing.T) {
	const segmentBytes = 1 << 10
	d := NewMemSegments(segmentBytes)
	if c := cap(d.segs[0].buf); c < segmentBytes || c > 2*segmentBytes {
		t.Fatalf("first segment pre-sized to %d bytes, want segmentBytes plus a small headroom", c)
	}
	var pass []byte
	n := uint64(0)
	for len(pass) < 2*segmentBytes {
		n++
		pass = append(pass, rec(n, n%8)...)
	}
	d.Write(pass)
	d.Sync()
	d.Mark(n)
	if infos := d.Segments(); len(infos) != 2 || infos[0].Bytes != len(pass) || !infos[0].Sealed {
		t.Fatalf("after one oversized pass: %+v", infos)
	}
	st := Replay(d.CrashSegments(), 0, 2, segDB(8))
	if st.Applied != int(n) || st.AppliedLSN != n || st.Torn {
		t.Fatalf("replay of the oversized pass: %+v, want %d records", st, n)
	}
}

// FileSegments.Truncate clears the slots it filtered out as well.
func TestFileSegmentsTruncateClearsTail(t *testing.T) {
	dev, err := OpenFileSegments(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	for l := uint64(1); l <= 6; l++ {
		dev.Write(rec(l, l))
		dev.Write(rec(l, l))
		dev.Sync()
		dev.Mark(l)
	}
	if n := dev.Truncate(4); n != 4 || len(dev.sealed) != 2 {
		t.Fatalf("Truncate(4) dropped %d, %d sealed remain", n, len(dev.sealed))
	}
	for _, s := range dev.sealed[len(dev.sealed):cap(dev.sealed)] {
		if s != (fileSegment{}) {
			t.Fatalf("dropped segment %q still referenced past len(sealed)", s.path)
		}
	}
}

// BenchmarkMemSegmentsWrite drives the flusher's call sequence (two
// buffer writes, sync, mark; truncate one rotation behind) and reports
// what the device copies per byte it is handed: a Write that grows the
// active buffer re-copies everything already in it.
func BenchmarkMemSegmentsWrite(b *testing.B) {
	d := NewMemSegments(0)
	p := bytes.Repeat([]byte{0xAB}, 16<<10)
	var written, copied, lsn, sealed uint64
	pass := func(i int) {
		active := d.segs[len(d.segs)-1]
		held, room := len(active.buf), cap(active.buf)
		d.Write(p)
		written += uint64(len(p))
		copied += uint64(len(p))
		if cap(active.buf) != room {
			copied += uint64(held)
		}
		if i%2 == 1 {
			lsn++
			d.Sync()
			n := len(d.segs)
			d.Mark(lsn)
			if len(d.segs) != n {
				d.Truncate(sealed)
				sealed = lsn
			}
		}
	}
	for i := 0; d.Truncated() < 2; i++ {
		pass(i) // prime: the device now owns its high-water of segments
	}
	written, copied = 0, 0
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(i)
	}
	b.ReportMetric(float64(copied)/float64(written), "copied-B/written-B")
}
