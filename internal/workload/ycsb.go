// Package workload generates the YCSB-style transaction mixes used
// throughout the paper's evaluation (§4.1-§4.3 and Appendix A):
//
//   - read-only transactions performing 10 reads;
//   - 10-RMW transactions performing 10 read-modify-writes;
//   - uniform key choice, or the hot/cold mix (2 records drawn from a
//     small "hot" set, 8 from the large "cold" remainder) that controls
//     contention;
//   - partition-locality constraints: unconstrained ("random"), exactly-k
//     partitions per transaction (Figure 6; "single" k=1 and "dual" k=2 in
//     Appendix A), and mixed single/multi workloads (Figure 7);
//   - a YCSB-E-style scan mix (ScanPct/MaxScanLen): a configurable
//     fraction of transactions become declared range scans served through
//     Ctx.Scan — an extension beyond the paper's point-access workloads.
//
// Hot ops are emitted before cold ops within each transaction, matching
// the paper's note that "locks on two hot records are acquired before
// locks on cold records".
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/txn"
)

// Source produces transactions for worker threads. Implementations must be
// safe for concurrent calls with distinct rng values.
type Source interface {
	Next(thread int, rng *rand.Rand) *txn.Txn
}

// YCSB is the configurable generator.
type YCSB struct {
	// Table is the target table id.
	Table int
	// NumRecords is the table row count; keys are uniform over [0,NumRecords).
	NumRecords uint64
	// OpsPerTxn is the access count per transaction (paper: 10).
	OpsPerTxn int
	// ReadOnly selects 10-read transactions instead of 10-RMW. These
	// keep the paper's locking read path (Figures 1 and 11 measure
	// exactly the physical contention of lock-acquiring reads), unlike
	// ReadOnlyPct below.
	ReadOnly bool
	// ReadOnlyPct marks this percentage of point transactions
	// txn.Txn.ReadOnly: pure read bodies served from an MVCC snapshot on
	// engines whose table is versioned (Layout.Versioned) — zero locks,
	// zero CC messages. The Ops are still declared as reads so engines
	// without versioned tables run the same transaction on their
	// ordinary locking path, which is what the read-mostly benchmarks
	// compare against. Mutually exclusive with ReadOnly; range [0, 100].
	ReadOnlyPct int
	// HotRecords is the hot-set size; 0 means uniform (no hot set).
	// Hot keys are [0, HotRecords), cold keys are the rest of the table.
	HotRecords uint64
	// HotOps is how many of the transaction's accesses hit the hot set
	// (paper: 2). Ignored when HotRecords is 0.
	HotOps int
	// Partitions is the engine's partition count (CC threads for ORTHRUS,
	// physical partitions for Partitioned-store). Required when Spread>0.
	Partitions int
	// Spread constrains each transaction's footprint to exactly Spread
	// distinct partitions. 0 leaves keys unconstrained ("random").
	Spread int
	// MultiPartitionPct, when Spread >= 2, makes only this percentage of
	// transactions span Spread partitions; the rest are single-partition
	// (Figure 7). 100 means every transaction spans Spread partitions.
	MultiPartitionPct int
	// ScanPct makes this percentage of transactions range scans (the
	// YCSB-E shape): each scan reads a contiguous key interval through
	// Ctx.Scan, with the interval declared as a RangeOp plus per-record
	// Read ops so planned engines lock it up front. The remaining
	// transactions keep the point-access shape above. Scans are
	// incompatible with Spread.
	ScanPct int
	// MaxScanLen bounds scan lengths: each scan draws its length
	// uniformly from [1, MaxScanLen] (the YCSB-E uniform scan-length
	// distribution). Required in [1, NumRecords] when ScanPct > 0.
	MaxScanLen int
}

// Validate checks configuration consistency.
func (c *YCSB) Validate() error {
	if c.OpsPerTxn <= 0 {
		return fmt.Errorf("workload: OpsPerTxn must be positive")
	}
	if c.NumRecords < uint64(c.OpsPerTxn) {
		return fmt.Errorf("workload: NumRecords %d < OpsPerTxn %d", c.NumRecords, c.OpsPerTxn)
	}
	if c.HotRecords > c.NumRecords {
		return fmt.Errorf("workload: HotRecords %d > NumRecords %d", c.HotRecords, c.NumRecords)
	}
	if c.HotRecords > 0 && c.HotOps > c.OpsPerTxn {
		return fmt.Errorf("workload: HotOps %d > OpsPerTxn %d", c.HotOps, c.OpsPerTxn)
	}
	if c.ReadOnlyPct < 0 || c.ReadOnlyPct > 100 {
		return fmt.Errorf("workload: ReadOnlyPct %d out of range [0, 100]", c.ReadOnlyPct)
	}
	if c.ReadOnlyPct > 0 && c.ReadOnly {
		return fmt.Errorf("workload: ReadOnly and ReadOnlyPct are mutually exclusive (ReadOnly keeps the locking read path)")
	}
	if c.ScanPct < 0 || c.ScanPct > 100 {
		return fmt.Errorf("workload: ScanPct %d out of range [0, 100]", c.ScanPct)
	}
	if c.ScanPct > 0 {
		if c.MaxScanLen < 1 || uint64(c.MaxScanLen) > c.NumRecords {
			return fmt.Errorf("workload: MaxScanLen %d out of range [1, NumRecords=%d]", c.MaxScanLen, c.NumRecords)
		}
		if c.Spread > 0 {
			return fmt.Errorf("workload: ScanPct does not support partition constraints (Spread)")
		}
	} else if c.MaxScanLen != 0 {
		return fmt.Errorf("workload: MaxScanLen %d set without ScanPct", c.MaxScanLen)
	}
	if c.Spread > 0 {
		if c.Partitions <= 0 {
			return fmt.Errorf("workload: Spread set but Partitions is 0")
		}
		if c.Spread > c.Partitions {
			return fmt.Errorf("workload: Spread %d > Partitions %d", c.Spread, c.Partitions)
		}
		if c.Spread > c.OpsPerTxn {
			return fmt.Errorf("workload: Spread %d > OpsPerTxn %d", c.Spread, c.OpsPerTxn)
		}
		if c.MultiPartitionPct < 0 || c.MultiPartitionPct > 100 {
			return fmt.Errorf("workload: MultiPartitionPct %d out of range", c.MultiPartitionPct)
		}
	}
	return nil
}

// ycsbTxn is the pooled carrier for one point-access YCSB transaction:
// the Txn and the op/seen-key/partition scratch the generator fills live
// in one recycled allocation. Logic and Free are method values bound once
// at pool creation, so a steady-state Next performs zero allocations.
// Scan transactions are not pooled (their shapes vary and their rates are
// low); they keep the allocating path with Free nil.
type ycsbTxn struct {
	txn.Txn
	ops  []txn.Op // backing array for Ops, capacity kept across lives
	seen []uint64 // distinct-key scratch
}

var ycsbPool sync.Pool

func init() {
	// Assigned in init, not a composite literal: New references methods
	// that reference the pool back (an initialization cycle at package
	// scope).
	ycsbPool.New = func() interface{} {
		t := &ycsbTxn{}
		t.Logic = t.run
		t.Free = t.free
		return t
	}
}

// run is the point-access body: reads checksum the first word of the
// record; RMWs additionally increment a counter in the record, so every
// committed RMW is observable (used by the serializability tests).
func (t *ycsbTxn) run(ctx txn.Ctx) error {
	var sink uint64
	for _, op := range t.Ops {
		if op.Mode == txn.Read {
			rec, err := ctx.Read(op.Table, op.Key)
			if err != nil {
				return err
			}
			sink += getU64(rec)
		} else {
			rec, err := ctx.Write(op.Table, op.Key)
			if err != nil {
				return err
			}
			putU64(rec, getU64(rec)+1)
		}
	}
	if sink == ^uint64(0) { // defeat dead-code elimination
		return fmt.Errorf("workload: impossible checksum")
	}
	return nil
}

// free implements txn.Txn.Free: the engine has already run the completion
// callback and every other observer, so the container can be recycled.
//
// Pool ownership: engine calls Free exactly once, after the last observer of the transaction.
func (t *ycsbTxn) free() {
	t.ID = 0
	t.Restarts = 0
	t.ReadOnly = false
	t.Partitions = t.Partitions[:0]
	t.ResetScratch()
	ycsbPool.Put(t)
}

// Next implements Source.
func (c *YCSB) Next(_ int, rng *rand.Rand) *txn.Txn {
	mode := txn.Write
	if c.ReadOnly {
		mode = txn.Read
	}

	if c.ScanPct > 0 && rng.Intn(100) < c.ScanPct {
		return c.scanTxn(rng)
	}

	// A ReadOnlyPct draw flips the whole transaction to pure reads and
	// flags it for the snapshot path (locking fallback keeps the Ops).
	snapshot := c.ReadOnlyPct > 0 && rng.Intn(100) < c.ReadOnlyPct
	if snapshot {
		mode = txn.Read
	}

	spread := c.Spread
	if spread >= 2 && c.MultiPartitionPct < 100 && rng.Intn(100) >= c.MultiPartitionPct {
		spread = 1
	}

	t := ycsbPool.Get().(*ycsbTxn)
	t.ReadOnly = snapshot

	var parts []int
	if spread > 0 {
		t.Partitions = pickDistinctInts(t.Partitions[:0], rng, spread, c.Partitions)
		parts = t.Partitions
	}

	hotOps := 0
	if c.HotRecords > 0 {
		hotOps = c.HotOps
	}

	ops := t.ops[:0]
	seen := t.seen[:0]
	for i := 0; i < c.OpsPerTxn; i++ {
		var part = -1
		if parts != nil {
			part = parts[i%len(parts)]
		}
		var key uint64
		var ok bool
		if i < hotOps {
			key, ok = c.pickKey(rng, part, 0, c.HotRecords, seen)
			if !ok {
				// Partition-constrained hot pick exhausted (tiny hot set
				// split across many partitions): fall back to this
				// partition's cold keys so the transaction still has
				// OpsPerTxn distinct keys.
				key, ok = c.pickCold(rng, part, seen)
			}
		} else {
			key, ok = c.pickCold(rng, part, seen)
		}
		if !ok {
			// Cold keys within the partition exhausted (only plausible in
			// tiny test tables): widen to any partition.
			key, _ = c.pickKey(rng, -1, 0, c.NumRecords, seen)
		}
		seen = append(seen, key)
		ops = append(ops, txn.Op{Table: c.Table, Key: key, Mode: mode})
	}
	t.ops, t.seen = ops, seen
	t.Ops = ops
	return &t.Txn
}

// scanTxn builds one YCSB-E range scan: a uniform start key, a length
// uniform in [1, MaxScanLen], read through Ctx.Scan. The interval is
// declared both as a RangeOp (stripe/partition protection) and as
// per-record Read ops, so planned engines pay the honest cost of locking
// every scanned record up front.
func (c *YCSB) scanTxn(rng *rand.Rand) *txn.Txn {
	n := uint64(1 + rng.Intn(c.MaxScanLen))
	lo := uint64(rng.Int63n(int64(c.NumRecords - n + 1)))
	hi := lo + n
	ops := make([]txn.Op, 0, n)
	for k := lo; k < hi; k++ {
		ops = append(ops, txn.Op{Table: c.Table, Key: k, Mode: txn.Read})
	}
	t := &txn.Txn{
		Ops:    ops,
		Ranges: []txn.RangeOp{{Table: c.Table, Lo: lo, Hi: hi, Mode: txn.Read}},
	}
	t.Logic = func(ctx txn.Ctx) error {
		var sink uint64
		err := ctx.Scan(c.Table, lo, hi, func(_ uint64, rec []byte) error {
			sink += getU64(rec)
			return nil
		})
		if err != nil {
			return err
		}
		if sink == ^uint64(0) { // defeat dead-code elimination
			return fmt.Errorf("workload: impossible checksum")
		}
		return nil
	}
	return t
}

// pickCold draws a key outside the hot set [0, HotRecords).
func (c *YCSB) pickCold(rng *rand.Rand, part int, seen []uint64) (uint64, bool) {
	return c.pickKey(rng, part, c.HotRecords, c.NumRecords, seen)
}

// pickKey draws a key from [lo,hi) not already in seen; when part >= 0 the
// key must live in that partition (key mod Partitions == part).
func (c *YCSB) pickKey(rng *rand.Rand, part int, lo, hi uint64, seen []uint64) (uint64, bool) {
	if hi <= lo {
		return 0, false
	}
	var n, base, stride uint64
	if part < 0 {
		base, stride = lo, 1
		n = hi - lo
	} else {
		stride = uint64(c.Partitions)
		p := uint64(part)
		// First key >= lo congruent to part.
		base = lo + ((p + stride - lo%stride) % stride)
		if base >= hi {
			return 0, false
		}
		n = (hi - base + stride - 1) / stride
	}
	// Random probes, then a deterministic sweep if the candidate space is
	// nearly exhausted by seen keys.
	for try := 0; try < 16; try++ {
		key := base + uint64(rng.Int63n(int64(n)))*stride
		if !contains(seen, key) {
			return key, true
		}
	}
	start := uint64(rng.Int63n(int64(n)))
	for i := uint64(0); i < n; i++ {
		key := base + ((start+i)%n)*stride
		if !contains(seen, key) {
			return key, true
		}
	}
	return 0, false
}

func contains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// pickDistinctInts appends k distinct values from [0, n) to buf (which may
// carry reusable capacity from a pooled container) and returns the result.
func pickDistinctInts(buf []int, rng *rand.Rand, k, n int) []int {
	if k >= n {
		out := buf
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
		return out
	}
	out := buf
	for len(out) < k {
		v := rng.Intn(n)
		dup := false
		for _, x := range out {
			if x == v {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}
