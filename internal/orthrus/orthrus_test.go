package orthrus

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

func newDB(n uint64) (*storage.DB, int) {
	db := storage.NewDB()
	id := db.Create(storage.Layout{Name: "main", NumRecords: n, RecordSize: 64})
	return db, id
}

func sumTable(db *storage.DB, tbl int, n uint64) uint64 {
	var sum uint64
	for k := uint64(0); k < n; k++ {
		sum += storage.GetU64(db.Table(tbl).Get(k), 0)
	}
	return sum
}

func TestNameVariants(t *testing.T) {
	db, _ := newDB(8)
	cases := []struct {
		cfg  Config
		want []string
	}{
		{Config{DB: db, CCThreads: 2, ExecThreads: 3}, []string{"orthrus(2cc/3ex)"}},
		{Config{DB: db, CCThreads: 1, ExecThreads: 1, SharedTable: true}, []string{"-shared"}},
	}
	for _, c := range cases {
		name := New(c.cfg).Name()
		for _, want := range c.want {
			if !strings.Contains(name, want) {
				t.Errorf("Name = %q, want substring %q", name, want)
			}
		}
	}
}

// The fundamental correctness test: transfers on a tiny hot set conserve
// the total balance (isolation) and the engine terminates (no deadlock).
func TestTransferConservation(t *testing.T) {
	const records = 8
	db, tbl := newDB(records)
	for k := uint64(0); k < records; k++ {
		storage.PutU64(db.Table(tbl).Get(k), 0, 1000)
	}
	eng := New(Config{DB: db, CCThreads: 2, ExecThreads: 3})
	src := &workload.Transfer{Table: tbl, NumRecords: records}
	res := eng.Run(src, 150*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Aborted != 0 {
		t.Fatalf("aborts = %d (exact access sets must never abort)", res.Totals.Aborted)
	}
	if got := sumTable(db, tbl, records); got != records*1000 {
		t.Fatalf("sum = %d, want %d", got, records*1000)
	}
}

// Multi-CC transactions under extreme contention: every transaction spans
// all CC threads; increments must all be accounted for.
func TestMultiPartitionRMWAccounted(t *testing.T) {
	const records = 64
	for _, variant := range []struct {
		name string
		cfg  Config
	}{
		{"private-spsc", Config{CCThreads: 4, ExecThreads: 4}},
		{"shared-table", Config{CCThreads: 4, ExecThreads: 4, SharedTable: true}},
	} {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			db, tbl := newDB(records)
			cfg := variant.cfg
			cfg.DB = db
			eng := New(cfg)
			src := &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 8, HotRecords: 8, HotOps: 2}
			if err := src.Validate(); err != nil {
				t.Fatal(err)
			}
			res := eng.Run(src, 150*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			want := res.Totals.Committed * 8
			if got := sumTable(db, tbl, records); got != want {
				t.Fatalf("increments = %d, want %d", got, want)
			}
		})
	}
}

// Single-partition transactions take the 2-message path and must also be
// correct when many exec threads hammer one CC thread.
func TestSinglePartitionLocality(t *testing.T) {
	const records = 1 << 12
	db, tbl := newDB(records)
	eng := New(Config{DB: db, CCThreads: 4, ExecThreads: 4})
	src := &workload.YCSB{
		Table: tbl, NumRecords: records, OpsPerTxn: 10,
		Partitions: 4, Spread: 1, MultiPartitionPct: 100,
	}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	res := eng.Run(src, 100*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	want := res.Totals.Committed * 10
	if got := sumTable(db, tbl, records); got != want {
		t.Fatalf("increments = %d, want %d", got, want)
	}
}

// Read-only workloads must never abort and must scale past one exec thread.
func TestReadOnlyNoAborts(t *testing.T) {
	db, tbl := newDB(1024)
	eng := New(Config{DB: db, CCThreads: 2, ExecThreads: 4})
	src := &workload.YCSB{Table: tbl, NumRecords: 1024, OpsPerTxn: 10, ReadOnly: true, HotRecords: 64, HotOps: 2}
	res := eng.Run(src, 100*time.Millisecond)
	if res.Totals.Committed == 0 || res.Totals.Aborted != 0 {
		t.Fatalf("committed=%d aborted=%d", res.Totals.Committed, res.Totals.Aborted)
	}
}

// The OLLP path: a source whose first estimate is always wrong must still
// commit every transaction exactly once, via Replan.
type missSource struct {
	table  int
	misses atomic.Int64
}

func (s *missSource) Next(int, *rand.Rand) *txn.Txn {
	t := &txn.Txn{Ops: []txn.Op{{Table: s.table, Key: 0, Mode: txn.Write}}}
	t.Logic = func(ctx txn.Ctx) error {
		rec, err := ctx.Write(s.table, 1)
		if err != nil {
			return err
		}
		storage.PutU64(rec, 0, storage.GetU64(rec, 0)+1)
		return nil
	}
	t.Replan = func(t *txn.Txn) {
		s.misses.Add(1)
		t.Ops = []txn.Op{{Table: s.table, Key: 1, Mode: txn.Write}}
	}
	return t
}

func TestOLLPEstimateMissRestarts(t *testing.T) {
	db, tbl := newDB(4)
	eng := New(Config{DB: db, CCThreads: 2, ExecThreads: 2})
	src := &missSource{table: tbl}
	res := eng.Run(src, 50*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Misses != res.Totals.Committed {
		t.Fatalf("misses = %d, commits = %d (every txn must miss exactly once)",
			res.Totals.Misses, res.Totals.Committed)
	}
	if got := storage.GetU64(db.Table(tbl).Get(1), 0); got != res.Totals.Committed {
		t.Fatalf("key1 = %d, want %d", got, res.Totals.Committed)
	}
}

// Property: for any access set, the submit-time chain visits CC threads
// in strictly ascending order and covers exactly the partition set — the
// deadlock-avoidance invariant of §3.2.
func TestChainOrderingInvariant(t *testing.T) {
	const ccThreads = 8
	pf := txn.HashPartitioner(ccThreads)
	f := func(rawKeys []uint16) bool {
		if len(rawKeys) == 0 {
			return true
		}
		tx := &txn.Txn{}
		for _, k := range rawKeys {
			tx.Ops = append(tx.Ops, txn.Op{Table: 0, Key: uint64(k), Mode: txn.Write})
		}
		tx.SortOps()
		// Reproduce submit's grouping logic.
		var hops []int
		covered := 0
		for c := 0; c < ccThreads; c++ {
			n := 0
			for _, op := range tx.Ops {
				if pf(op.Table, op.Key) == c {
					n++
				}
			}
			if n > 0 {
				hops = append(hops, c)
				covered += n
			}
		}
		if covered != len(tx.Ops) {
			return false
		}
		for i := 1; i < len(hops); i++ {
			if hops[i-1] >= hops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A 1-CC/1-exec configuration is the smallest legal engine and must work.
func TestMinimalConfiguration(t *testing.T) {
	db, tbl := newDB(32)
	eng := New(Config{DB: db, CCThreads: 1, ExecThreads: 1, Inflight: 1, QueueCap: 1})
	src := &workload.YCSB{Table: tbl, NumRecords: 32, OpsPerTxn: 4}
	res := eng.Run(src, 50*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	want := res.Totals.Committed * 4
	if got := sumTable(db, tbl, 32); got != want {
		t.Fatalf("increments = %d, want %d", got, want)
	}
}

// Time breakdown must be populated and exec threads must report waiting
// when CC threads are the bottleneck.
func TestBreakdownPopulated(t *testing.T) {
	db, tbl := newDB(64)
	eng := New(Config{DB: db, CCThreads: 1, ExecThreads: 3})
	src := &workload.YCSB{Table: tbl, NumRecords: 64, OpsPerTxn: 8, HotRecords: 4, HotOps: 2}
	res := eng.Run(src, 100*time.Millisecond)
	tot := res.Totals
	if tot.Exec <= 0 || tot.Lock <= 0 {
		t.Fatalf("breakdown missing: %+v", tot)
	}
}

// Local lock-table unit tests (the latch-free FIFO queue inside CC
// threads) — exercised directly, without the message plane.
func TestPrivateTableFIFO(t *testing.T) {
	tbl := &privateTable{}
	w := &wrapper{}
	mk := func(mode txn.Mode, key uint64) *localReq {
		return &localReq{w: w, mode: mode, key: lockKey{Key: key}}
	}

	r1 := mk(txn.Read, 1)
	r2 := mk(txn.Read, 1)
	w1 := mk(txn.Write, 1)
	r3 := mk(txn.Read, 1)

	if !tbl.insert(r1) || !tbl.insert(r2) {
		t.Fatal("shared locks must coexist")
	}
	if tbl.insert(w1) {
		t.Fatal("write granted alongside reads")
	}
	if tbl.insert(r3) {
		t.Fatal("read overtook waiting writer (FIFO violation)")
	}

	var out []*localReq
	out = tbl.release(r1, out)
	if len(out) != 0 {
		t.Fatal("premature grant")
	}
	out = tbl.release(r2, out)
	if len(out) != 1 || out[0] != w1 {
		t.Fatalf("expected writer grant, got %v", out)
	}
	out = tbl.release(w1, out[:0])
	if len(out) != 1 || out[0] != r3 {
		t.Fatalf("expected reader grant, got %v", out)
	}
	out = tbl.release(r3, out[:0])
	if len(out) != 0 {
		t.Fatal("grant from empty queue")
	}
	if tbl.Len() != 0 {
		t.Fatal("entry leaked")
	}
}

func TestSharedTableMirrorsPrivateSemantics(t *testing.T) {
	st := newSharedTable(16)
	v := sharedView{st}
	w := &wrapper{}
	a := &localReq{w: w, mode: txn.Write, key: lockKey{Key: 5}}
	b := &localReq{w: w, mode: txn.Write, key: lockKey{Key: 5}}
	if !v.insert(a) {
		t.Fatal("first writer refused")
	}
	if v.insert(b) {
		t.Fatal("second writer granted")
	}
	out := v.release(a, nil)
	if len(out) != 1 || out[0] != b {
		t.Fatal("release did not grant waiter")
	}
	v.release(b, out[:0])
}

// Stress: run long enough under -race to surface ownership violations in
// the message plane.
func TestStressMixedSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const records = 256
	db, tbl := newDB(records)
	eng := New(Config{DB: db, CCThreads: 3, ExecThreads: 5, Inflight: 4})
	src := &workload.YCSB{
		Table: tbl, NumRecords: records, OpsPerTxn: 6,
		HotRecords: 16, HotOps: 2,
		Partitions: 3, Spread: 2, MultiPartitionPct: 50,
	}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	res := eng.Run(src, 400*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	want := res.Totals.Committed * 6
	if got := sumTable(db, tbl, records); got != want {
		t.Fatalf("increments = %d, want %d", got, want)
	}
}

// fixedSpreadSource emits transactions touching exactly one key in each
// of k fixed partitions — the footprint is deterministic, so message
// counts can be verified exactly.
type fixedSpreadSource struct {
	table int
	k     int
	cc    int
	n     uint64
}

func (s *fixedSpreadSource) Next(_ int, rng *rand.Rand) *txn.Txn {
	ops := make([]txn.Op, s.k)
	base := uint64(rng.Int63n(int64(s.n/uint64(s.cc)-1))) * uint64(s.cc)
	for i := 0; i < s.k; i++ {
		ops[i] = txn.Op{Table: s.table, Key: base + uint64(i), Mode: txn.Write}
	}
	t := &txn.Txn{Ops: ops}
	t.Logic = func(ctx txn.Ctx) error {
		for _, op := range t.Ops {
			rec, err := ctx.Write(op.Table, op.Key)
			if err != nil {
				return err
			}
			storage.PutU64(rec, 0, storage.GetU64(rec, 0)+1)
		}
		return nil
	}
	return t
}

// TestMessageCountNccPlusOne verifies the §3.3 claim directly: with
// forwarding, acquiring a transaction's locks across Ncc CC threads costs
// exactly Ncc+1 messages; the naive protocol costs 2·Ncc.
func TestMessageCountNccPlusOne(t *testing.T) {
	const ncc = 4
	for _, naive := range []bool{false, true} {
		name := "forwarding"
		if naive {
			name = "exec-mediated"
		}
		t.Run(name, func(t *testing.T) {
			db, tbl := newDB(1 << 12)
			eng := New(Config{DB: db, CCThreads: ncc, ExecThreads: 2, DisableForwarding: naive})
			src := &fixedSpreadSource{table: tbl, k: ncc, cc: ncc, n: 1 << 12}
			res := eng.Run(src, 80*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			m := eng.Messages()
			perTxn := float64(m.AcquisitionMessages()) / float64(res.Totals.Committed)
			want := float64(ncc + 1)
			if naive {
				want = float64(2 * ncc)
			}
			if perTxn != want {
				t.Fatalf("acquisition messages per txn = %v, want %v (stats %+v, commits %d)",
					perTxn, want, m, res.Totals.Committed)
			}
			if got := float64(m.Releases) / float64(res.Totals.Committed); got != float64(ncc) {
				t.Fatalf("release messages per txn = %v, want %d", got, ncc)
			}
			// Increment accounting still exact in both modes.
			want2 := res.Totals.Committed * ncc
			if got := sumTable(db, tbl, 1<<12); got != want2 {
				t.Fatalf("increments = %d, want %d", got, want2)
			}
		})
	}
}

// TestDisableForwardingConservation: the naive protocol must be just as
// correct, only chattier.
func TestDisableForwardingConservation(t *testing.T) {
	const records = 8
	db, tbl := newDB(records)
	for k := uint64(0); k < records; k++ {
		storage.PutU64(db.Table(tbl).Get(k), 0, 1000)
	}
	eng := New(Config{DB: db, CCThreads: 3, ExecThreads: 3, DisableForwarding: true})
	src := &workload.Transfer{Table: tbl, NumRecords: records}
	res := eng.Run(src, 120*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if got := sumTable(db, tbl, records); got != records*1000 {
		t.Fatalf("sum = %d, want %d", got, records*1000)
	}
}

// A partitioner whose range exceeds the CC thread count must still lock
// every declared op (partitions fold modulo CC count); no op may be
// silently dropped. Regression test for the Autotune-probe bug.
func TestWidePartitionerFoldsSafely(t *testing.T) {
	const records = 8
	db, tbl := newDB(records)
	for k := uint64(0); k < records; k++ {
		storage.PutU64(db.Table(tbl).Get(k), 0, 1000)
	}
	// 8-way partitioner on a 2-CC engine.
	eng := New(Config{DB: db, CCThreads: 2, ExecThreads: 3, Partition: txn.HashPartitioner(8)})
	src := &workload.Transfer{Table: tbl, NumRecords: records}
	res := eng.Run(src, 120*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if got := sumTable(db, tbl, records); got != records*1000 {
		t.Fatalf("sum = %d, want %d (ops escaped locking)", got, records*1000)
	}
}

// The record → CC map is Partition % CCThreads, and by default exactly
// HashPartitioner(CCThreads): key % CCThreads.
func TestDefaultRoutingMatchesLegacyHash(t *testing.T) {
	db, _ := newDB(8)
	for _, cc := range []int{1, 2, 3, 5, 8} {
		s := New(Config{DB: db, CCThreads: cc, ExecThreads: 1}).newRunState()
		pf := txn.HashPartitioner(cc)
		for key := uint64(0); key < 4096; key++ {
			if got, want := s.ccOf(0, key), pf(0, key); got != want {
				t.Fatalf("cc=%d key=%d routed to %d, HashPartitioner(%d) says %d", cc, key, got, cc, want)
			}
		}
	}
}

// Per-CC-thread message breakdowns must sum to the send-side totals.
func TestPerCCStatsConservation(t *testing.T) {
	underProcs(t, testPerCCStatsConservation)
}

func testPerCCStatsConservation(t *testing.T, procs int) {
	const records = 1 << 12
	db, tbl := newDB(records)
	eng := New(Config{DB: db, CCThreads: 3, ExecThreads: 3})
	src := &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 8, HotRecords: 64, HotOps: 2}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	if res := eng.Run(src, 150*time.Millisecond); res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	m := eng.Messages()
	if len(m.PerCC) != 3 {
		t.Fatalf("PerCC has %d entries, want 3", len(m.PerCC))
	}
	var acq, fwd, rel, grants uint64
	hiWaterSeen := false
	for _, cs := range m.PerCC {
		acq += cs.Acquires
		fwd += cs.Forwards
		rel += cs.Releases
		grants += cs.Grants
		if cs.QueueHighWater > 0 {
			hiWaterSeen = true
		}
		if cs.Handled() != cs.Acquires+cs.Forwards+cs.Releases {
			t.Fatalf("Handled() inconsistent: %+v", cs)
		}
	}
	if acq != m.Acquires || fwd != m.Forwards || rel != m.Releases || grants != m.Grants {
		t.Fatalf("per-CC sums (acq=%d fwd=%d rel=%d grant=%d) != totals (%d %d %d %d)",
			acq, fwd, rel, grants, m.Acquires, m.Forwards, m.Releases, m.Grants)
	}
	if !hiWaterSeen {
		t.Fatal("no CC thread recorded a queue high-water mark")
	}
	if want := min(6, procs); m.Workers != want {
		t.Fatalf("Workers = %d, want %d", m.Workers, want)
	}
}

// New must reject malformed configuration up front with a clear panic
// instead of failing deep inside ring or table construction.
func TestConfigValidationPanics(t *testing.T) {
	db, _ := newDB(8)
	base := func() Config { return Config{DB: db, CCThreads: 2, ExecThreads: 2} }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-threads", func(c *Config) { c.CCThreads = 0 }},
		{"negative-queuecap", func(c *Config) { c.QueueCap = -1 }},
		{"negative-inflight", func(c *Config) { c.Inflight = -8 }},
		{"negative-batchsize", func(c *Config) { c.BatchSize = -2 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted invalid config")
				}
			}()
			New(cfg)
		})
	}
}
