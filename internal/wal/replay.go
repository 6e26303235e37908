package wal

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/storage"
)

// ReplayStats reports what a replay scan found and applied.
type ReplayStats struct {
	// Scanned counts well-formed records in the image; Applied those
	// actually replayed (the contiguous LSN prefix above the checkpoint);
	// Skipped those at or below the checkpoint LSN, already covered by
	// the checkpoint image.
	Scanned int
	Applied int
	Skipped int
	// AppliedLSN is the highest LSN replayed (0 when nothing was).
	AppliedLSN uint64
	// Torn reports that the scan stopped before the end of the image —
	// a truncated or corrupted tail, the expected shape after a crash.
	Torn bool
}

// logRec is one valid record of a scanned log image: its LSN, where it
// starts, segs[seg][off:], its writes, writes[lo:hi] of the scan, and
// whether db can land them all.
type logRec struct {
	lsn         uint64
	off, lo, hi int
	seg         int
	landable    bool
}

// writeRef is one write of a scanned record: its table, its key, and
// where its value starts within the record and how long it is.
type writeRef struct {
	key       uint64
	table     int32
	off, vlen uint32
}

// logScan is a log image's valid records sorted by LSN, and their
// writes. It holds keys and positions, not values, so a pass over the
// writes reads the log's bytes only for the values it uses, and a scan
// reused across calls allocates only when the image is larger than any
// before it: 24 bytes a write.
type logScan struct {
	segs   [][]byte
	recs   []logRec
	writes []writeRef
	torn   bool
}

// scan indexes every segment, each up to its first record that is
// incomplete or fails its checksum, checks each record's writes against
// db while its bytes are in cache, and sorts the records by LSN. The sort
// is stable, so equal LSNs keep segment order.
func (s *logScan) scan(segs [][]byte, db *storage.DB) {
	s.segs, s.recs, s.writes, s.torn = segs, s.recs[:0], s.writes[:0], false
	for i, data := range segs {
		for off := 0; off < len(data); {
			lsn, p, n, ok := decodeRecord(data[off:])
			if !ok {
				s.torn = true
				break
			}
			r := logRec{lsn: lsn, off: off, lo: len(s.writes), seg: i, landable: true}
			for len(p) > 0 {
				val := n - len(p) + 16 // the payload is the record's last bytes
				var w redoWrite
				w, p = nextWrite(p)
				s.writes = append(s.writes, writeRef{key: w.key, table: w.table, off: uint32(val), vlen: uint32(len(w.val))})
				t := int(w.table)
				r.landable = r.landable && t >= 0 && t < db.NumTables() && storage.CheckInsert(db.Table(t), w.key, w.val) == nil
			}
			r.hi = len(s.writes)
			s.recs = append(s.recs, r)
			off += n
		}
	}
	slices.SortStableFunc(s.recs, func(a, b logRec) int { return cmp.Compare(a.lsn, b.lsn) })
}

// val returns the value of write w of record r. A pass over the writes
// takes everything else from the scan, so only values touch the log
// again, at addresses known without reading it.
func (s *logScan) val(r logRec, w writeRef) []byte {
	at := r.off + int(w.off)
	return s.segs[r.seg][at : at+int(w.vlen) : at+int(w.vlen)]
}

// prefix selects the records that replay over an image at LSN after:
// records at or below after are skipped, then the contiguous LSNs from
// after+1 apply, ending at the first gap or at the first record with a
// write db cannot land (wrong schema, or corruption the CRC missed).
// Replay and Compact both select through here, so an image compacted to
// LSN L and a replay that reaches L hold the same records.
func (s *logScan) prefix(after uint64) ([]logRec, ReplayStats) {
	st := ReplayStats{Scanned: len(s.recs), Torn: s.torn}
	for st.Skipped < len(s.recs) && s.recs[st.Skipped].lsn <= after {
		st.Skipped++
	}
	i, next := st.Skipped, after+1
	for ; i < len(s.recs) && s.recs[i].lsn == next; i, next = i+1, next+1 {
		if !s.recs[i].landable {
			st.Torn = true
			break
		}
	}
	apply := s.recs[st.Skipped:i]
	st.Applied = len(apply)
	if len(apply) > 0 {
		st.AppliedLSN = apply[len(apply)-1].lsn
	}
	return apply, st
}

// Replay rebuilds committed state from a log image onto db, which must
// hold the same initial (pre-run) contents the logged run started from
// (or, with after > 0, the checkpoint image covering every LSN ≤ after).
// The image is the log's segments in order — CrashSegments or
// LoadFileSegments; an unrotated log is simply one segment.
//
// The image may be torn anywhere: each segment's scan stops at the first
// record that is incomplete or fails its checksum and marks the stats
// Torn. Segment rotation happens only at sync boundaries, so each segment
// is a self-contained stream of whole records. Because the flusher
// writes appender buffers in steal order, not LSN order, a torn image can
// also hold an LSN with a missing predecessor; those records were never
// acknowledged (acknowledgment is in LSN order), so Replay applies only
// the longest contiguous LSN prefix starting at after+1. The result
// equals the state produced by running exactly that prefix of the commit
// order — a dependency-closed set, since any transaction a record depends
// on has a smaller LSN — and it contains every transaction the log's
// owner acknowledged. A log continued across engine restarts replays
// identically because LSNs keep ascending across sessions.
//
// Records with LSN ≤ after can appear in surviving segments even after
// truncation (a late segment can carry early LSNs); they are skipped
// rather than re-applied, which keeps AppliedLSN an exact continuation:
// AppliedLSN == after + Applied whenever anything applies.
func Replay(segs [][]byte, after uint64, db *storage.DB) ReplayStats {
	var s logScan
	s.scan(segs, db)
	apply, st := s.prefix(after)
	for _, r := range apply {
		for _, w := range s.writes[r.lo:r.hi] {
			if err := db.Table(int(w.table)).Insert(w.key, s.val(r, w)); err != nil {
				panic(fmt.Sprintf("wal: replay insert failed after validation: %v", err))
			}
		}
	}
	return st
}

// RecoverStats reports one recovery: what the checkpoint restored and
// what the log tail replayed on top.
type RecoverStats struct {
	// UsedCheckpoint reports that a valid checkpoint was loaded; when
	// false, recovery was a full log replay from LSN 1.
	UsedCheckpoint bool
	// StartLSN echoes the loaded manifest (0 when none).
	StartLSN uint64
	// RecordsRestored counts the checkpoint image's records.
	RecordsRestored int
	// Replay is the log-tail replay on top of the image.
	Replay ReplayStats
}

// Recover rebuilds committed state onto db: load the newest valid
// checkpoint from store (nil store, or a store with no valid
// checkpoint, means none), restore its records, then replay the
// committed prefix of the log tail above the checkpoint's StartLSN with
// Replay. db must hold the same initial (pre-run) contents the logged
// run started from — checkpoint records and redo records both
// overwrite, so restoring onto the base schema is idempotent. The
// store's Load error, ErrManifestVersion among them, ends recovery.
//
// The ignored trailing argument stays only for bench/verify.go's call, until ROADMAP item 1(b).
func Recover(store CheckpointStore, segs [][]byte, db *storage.DB, _ ...int) (RecoverStats, error) {
	var st RecoverStats
	if store != nil {
		ck, err := store.Load()
		if err != nil {
			return st, err
		}
		if ck != nil {
			st.UsedCheckpoint, st.StartLSN = true, ck.Manifest.StartLSN
			if err := ck.Records(db, func(table int, key uint64, val []byte) error {
				st.RecordsRestored++
				return db.Table(table).Insert(key, val)
			}); err != nil {
				return st, err
			}
		}
	}
	st.Replay = Replay(segs, st.StartLSN, db)
	return st, nil
}
