package wal

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

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

// Replay rebuilds committed state from a log image onto db, which must
// hold the same initial (pre-run) contents the logged run started from
// (or, with after > 0, the checkpoint image covering every LSN ≤ after).
// The image is the log's segments in order — CrashSegments or
// LoadFileSegments; an unrotated log is simply one segment.
//
// The image may be torn anywhere: each segment's scan (in parallel when
// workers > 1) stops at the first record that is incomplete or fails its
// checksum and marks the stats Torn. Segment rotation happens only at
// sync boundaries, so each segment is a self-contained stream of whole
// records. Because the flusher writes appender buffers in steal order,
// not LSN order, a torn image can also hold an LSN with a missing
// predecessor; those records were never acknowledged (acknowledgment is
// in LSN order), so Replay applies only the longest contiguous LSN
// prefix starting at after+1. The result equals the state produced by
// running exactly that prefix of the commit order — a dependency-closed
// set, since any transaction a record depends on has a smaller LSN — and
// it contains every transaction the log's owner acknowledged under the
// Group policy. A log continued across engine restarts replays
// identically because LSNs keep ascending across sessions.
//
// Records with LSN ≤ after can appear in surviving segments even after
// truncation (the flusher writes in steal order, so a late segment can
// carry early LSNs); skipping them — rather than re-applying — matters
// only for economy, since every log record is a full after-image that
// the image-covered prefix already reflects, but it keeps AppliedLSN an
// exact continuation: AppliedLSN == after + Applied whenever anything
// applies.
//
// With workers > 1, the applied writes are partitioned by (table, key)
// hash across workers — per-key application order is preserved, and
// since redo records are full after-images with no cross-key reads, the
// final state is byte-identical to the serial replay. A merge barrier
// joins the workers before returning. Which records to apply (the
// contiguous, validated prefix) is decided serially before any write
// lands, so parallel and serial replay always pick the same prefix.
func Replay(segs [][]byte, after uint64, workers int, db *storage.DB) ReplayStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var st ReplayStats

	// Scan: each segment independently, stopping that segment at its
	// first malformed record. Results are merged in segment order so the
	// merged sequence is deterministic regardless of worker count.
	scanned := make([][]decoded, len(segs))
	torn := make([]bool, len(segs))
	scanOne := func(i int) {
		data := segs[i]
		var recs []decoded
		for len(data) > 0 {
			rec, n, ok := decodeRecord(data)
			if !ok {
				torn[i] = true
				break
			}
			recs = append(recs, rec)
			data = data[n:]
		}
		scanned[i] = recs
	}
	if workers > 1 && len(segs) > 1 {
		var wg sync.WaitGroup
		next := make(chan int, len(segs))
		for i := range segs {
			next <- i
		}
		close(next)
		n := workers
		if n > len(segs) {
			n = len(segs)
		}
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					scanOne(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range segs {
			scanOne(i)
		}
	}

	var recs []decoded
	for i := range scanned {
		recs = append(recs, scanned[i]...)
		st.Torn = st.Torn || torn[i]
	}
	st.Scanned = len(recs)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].lsn < recs[j].lsn })

	// Select and validate the applicable prefix serially: contiguous
	// LSNs from after+1, every write landable. A record that cannot be
	// applied (wrong schema, corruption that survived the CRC) ends the
	// prefix exactly where the serial replay would have stopped.
	next := after + 1
	apply := recs[:0]
	for _, rec := range recs {
		if rec.lsn <= after {
			st.Skipped++
			continue
		}
		if rec.lsn != next {
			break
		}
		bad := false
		for _, w := range rec.writes {
			t := int(w.table)
			if t < 0 || t >= db.NumTables() || storage.CheckInsert(db.Table(t), w.key, w.val) != nil {
				bad = true
				break
			}
		}
		if bad {
			st.Torn = true
			break
		}
		apply = append(apply, rec)
		next++
	}
	if len(apply) == 0 {
		return st
	}
	st.Applied = len(apply)
	st.AppliedLSN = apply[len(apply)-1].lsn

	if workers <= 1 {
		for _, rec := range apply {
			applyRecord(db, rec)
		}
		return st
	}

	// Partition writes by (table, key) hash, iterating records in LSN
	// order so each partition sees its keys' writes in LSN order.
	buckets := make([][]redoWrite, workers)
	for _, rec := range apply {
		for _, w := range rec.writes {
			b := int(writeHash(w.table, w.key) % uint64(workers))
			buckets[b] = append(buckets[b], w)
		}
	}
	var wg sync.WaitGroup
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(bucket []redoWrite) {
			defer wg.Done()
			for _, w := range bucket {
				if err := db.Table(int(w.table)).Insert(w.key, w.val); err != nil {
					// CheckInsert validated this exact write above.
					panic(fmt.Sprintf("wal: replay insert failed after validation: %v", err))
				}
			}
		}(bucket)
	}
	wg.Wait()
	return st
}

// applyRecord lands one validated record's writes.
func applyRecord(db *storage.DB, rec decoded) {
	for _, w := range rec.writes {
		if err := db.Table(int(w.table)).Insert(w.key, w.val); err != nil {
			panic(fmt.Sprintf("wal: replay insert failed after validation: %v", err))
		}
	}
}

// writeHash mixes (table, key) into the partition hash. The same mix
// storage.GrowTable uses for shard selection, salted with the table.
func writeHash(table int32, key uint64) uint64 {
	return (key ^ (uint64(uint32(table)) * 0xA24BAED4963EE407)) * 0x9E3779B97F4A7C15
}

// RecoverStats reports one recovery: what the checkpoint restored and
// what the log tail replayed on top.
type RecoverStats struct {
	// UsedCheckpoint reports that a valid checkpoint was loaded; when
	// false, recovery was a full log replay from LSN 1.
	UsedCheckpoint bool
	// StartLSN/TailLSN echo the loaded manifest (0 when none).
	StartLSN uint64
	TailLSN  uint64
	// PagesRestored/RecordsRestored count the checkpoint image.
	PagesRestored   int
	RecordsRestored int
	// Replay is the log-tail replay on top of the image.
	Replay ReplayStats
}

// Recover rebuilds committed state onto db: load the newest valid
// checkpoint from store (nil store, or a store with no valid
// checkpoint, means none), restore its pages in parallel, then replay
// the committed prefix of the log tail above the checkpoint's StartLSN
// with Replay. db must hold the same initial (pre-run) contents
// the logged run started from — checkpoint pages and redo records both
// overwrite, so restoring onto the base schema is idempotent.
//
// Restoring pages in parallel is safe because a checkpoint image holds
// each (table, key) at most once: pages never conflict on a record.
func Recover(store CheckpointStore, segs [][]byte, db *storage.DB, workers int) (RecoverStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var st RecoverStats
	if store != nil {
		ck, err := store.Load()
		if err != nil {
			return st, err
		}
		if ck != nil {
			st.UsedCheckpoint = true
			st.StartLSN = ck.Manifest.StartLSN
			st.TailLSN = ck.Manifest.TailLSN
			st.PagesRestored = len(ck.Pages)
			counts := make([]int, len(ck.Pages))
			errs := make([]error, len(ck.Pages))
			var wg sync.WaitGroup
			n := workers
			if n > len(ck.Pages) {
				n = len(ck.Pages)
			}
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(ck.Pages); i += n {
						counts[i], errs[i] = restorePage(db, ck.Pages[i])
					}
				}(w)
			}
			wg.Wait()
			for i := range errs {
				if errs[i] != nil {
					return st, errs[i]
				}
				st.RecordsRestored += counts[i]
			}
		}
	}
	st.Replay = Replay(segs, st.StartLSN, workers, db)
	return st, nil
}

// restorePage lands one checkpoint page's records onto db.
func restorePage(db *storage.DB, p []byte) (int, error) {
	table, _, _, ok := verifyPage(p)
	if !ok || table < 0 || table >= db.NumTables() {
		return 0, fmt.Errorf("wal: checkpoint page for unknown table %d", table)
	}
	t := db.Table(table)
	_, count, err := DecodePage(p, func(key uint64, val []byte) error {
		return t.Insert(key, val)
	})
	return count, err
}
