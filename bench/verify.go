package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// check is one output verification. A failed check counts into the run's
// failed total and makes the process exit non-zero.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// recovery is what the durable workload's crash-recovery check measured.
type recovery struct {
	ms      float64
	applied int // log records replayed on top of the checkpoint
}

// verify checks the run's outputs. counterSkew is added to the expected
// counter sum; it is zero except in the test that proves a broken check
// fails the run.
func verify(sys *system, d *driver, c *sessionStats, counterSkew uint64) ([]check, recovery) {
	var out []check
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	// Lost updates: every committed RMW transaction incremented the first
	// word of opsPerTxn distinct records exactly once.
	var sum uint64
	tbl := sys.db.Table(sys.tbl)
	for k := uint64(0); k < numRecords; k++ {
		sum += storage.GetU64(tbl.Get(k), 0)
	}
	want := opsPerTxn*d.rmwOK + counterSkew
	add("counter_sum", sum == want, "sum of first words %d, want %d × %d committed RMW = %d", sum, opsPerTxn, d.rmwOK, want)

	add("acknowledged", d.committed+d.failed == d.submitted, "%d committed + %d failed of %d submitted", d.committed, d.failed, d.submitted)
	add("no_aborts", c.totals.Aborted == 0, "%d aborts on the planned engine (exact access sets never abort)", c.totals.Aborted)

	if sys.sp.readOnlyPct > 0 {
		add("snapshot_reads", c.totals.SnapTxns == d.readOnly, "%d snapshot transactions, %d read-only submissions", c.totals.SnapTxns, d.readOnly)
	}

	if sys.sp.tcp {
		e, cc := c.execNet, c.ccNet
		add("cc_node_closed", c.ccReturned, "cc node Close returned: %t", c.ccReturned)
		add("wire_exec_to_cc", e.FramesSent == cc.FramesReceived && e.MessagesSent == cc.MessagesReceived && e.BytesSent == cc.BytesReceived,
			"exec sent %d frames/%d msgs/%d B, cc received %d/%d/%d", e.FramesSent, e.MessagesSent, e.BytesSent, cc.FramesReceived, cc.MessagesReceived, cc.BytesReceived)
		add("wire_cc_to_exec", cc.FramesSent == e.FramesReceived && cc.MessagesSent == e.MessagesReceived && cc.BytesSent == e.BytesReceived,
			"cc sent %d frames/%d msgs/%d B, exec received %d/%d/%d", cc.FramesSent, cc.MessagesSent, cc.BytesSent, e.FramesReceived, e.MessagesReceived, e.BytesReceived)
	}

	var rec recovery
	if sys.sp.durable {
		// Crash: keep only what was synced, plus the checkpoint store,
		// and rebuild onto a freshly loaded database.
		segs := sys.dev.CrashSegments()
		fresh, ftbl := loadDB(sys.sp.versioned)
		t0 := time.Now()
		st, err := wal.Recover(sys.store, segs, fresh, 2)
		rec = recovery{ms: float64(time.Since(t0)) / 1e6, applied: st.Replay.Applied}
		same := err == nil
		var firstDiff uint64
		if same {
			ft := fresh.Table(ftbl)
			for k := uint64(0); k < numRecords; k++ {
				if !bytes.Equal(ft.Get(k), tbl.Get(k)) {
					same, firstDiff = false, k
					break
				}
			}
		}
		add("recovery_byte_equal", same, "recovered from %d segments + checkpoint (used=%t, %d records restored, %d log records applied), err=%v, first differing key=%d",
			len(segs), st.UsedCheckpoint, st.RecordsRestored, st.Replay.Applied, err, firstDiff)
	}
	return out, rec
}
