package workload

import (
	"math/rand"
	"testing"

	"repro/internal/txn"
)

func newRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestValidate(t *testing.T) {
	good := YCSB{NumRecords: 1000, OpsPerTxn: 10, HotRecords: 64, HotOps: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []YCSB{
		{NumRecords: 1000, OpsPerTxn: 0},
		{NumRecords: 5, OpsPerTxn: 10},
		{NumRecords: 100, OpsPerTxn: 10, HotRecords: 200},
		{NumRecords: 100, OpsPerTxn: 10, HotRecords: 64, HotOps: 11},
		{NumRecords: 100, OpsPerTxn: 10, Spread: 2},                                        // no partitions
		{NumRecords: 100, OpsPerTxn: 10, Spread: 5, Partitions: 4},                         // spread > partitions
		{NumRecords: 100, OpsPerTxn: 10, Spread: 11, Partitions: 16},                       // spread > ops
		{NumRecords: 100, OpsPerTxn: 10, Spread: 2, Partitions: 4, MultiPartitionPct: 101}, // pct range
		{NumRecords: 100, OpsPerTxn: 10, Spread: 2, Partitions: 4, MultiPartitionPct: -1},  // pct range
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, c)
		}
	}
}

func TestDistinctKeysAndOpCount(t *testing.T) {
	c := &YCSB{NumRecords: 10000, OpsPerTxn: 10, HotRecords: 64, HotOps: 2}
	rng := newRand()
	for i := 0; i < 200; i++ {
		tx := c.Next(0, rng)
		if len(tx.Ops) != 10 {
			t.Fatalf("ops = %d", len(tx.Ops))
		}
		seen := map[uint64]bool{}
		for _, op := range tx.Ops {
			if seen[op.Key] {
				t.Fatalf("duplicate key %d in %v", op.Key, tx.Ops)
			}
			seen[op.Key] = true
		}
	}
}

func TestHotColdSplitAndOrder(t *testing.T) {
	c := &YCSB{NumRecords: 10000, OpsPerTxn: 10, HotRecords: 64, HotOps: 2}
	rng := newRand()
	for i := 0; i < 200; i++ {
		tx := c.Next(0, rng)
		for j, op := range tx.Ops {
			hot := op.Key < 64
			if j < 2 && !hot {
				t.Fatalf("op %d should be hot, key=%d", j, op.Key)
			}
			if j >= 2 && hot {
				t.Fatalf("op %d should be cold, key=%d", j, op.Key)
			}
		}
	}
}

func TestReadOnlyModes(t *testing.T) {
	rng := newRand()
	ro := &YCSB{NumRecords: 1000, OpsPerTxn: 10, ReadOnly: true}
	for _, op := range ro.Next(0, rng).Ops {
		if op.Mode != txn.Read {
			t.Fatal("read-only txn has write op")
		}
	}
	rw := &YCSB{NumRecords: 1000, OpsPerTxn: 10}
	for _, op := range rw.Next(0, rng).Ops {
		if op.Mode != txn.Write {
			t.Fatal("RMW txn has read op")
		}
	}
}

func TestSpreadConstraint(t *testing.T) {
	const P = 16
	pf := txn.HashPartitioner(P)
	for _, spread := range []int{1, 2, 4, 6, 8, 10} {
		c := &YCSB{NumRecords: 100000, OpsPerTxn: 10, Partitions: P, Spread: spread, MultiPartitionPct: 100}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		rng := newRand()
		for i := 0; i < 100; i++ {
			tx := c.Next(0, rng)
			parts := map[int]bool{}
			for _, op := range tx.Ops {
				parts[pf(op.Table, op.Key)] = true
			}
			if len(parts) != spread {
				t.Fatalf("spread=%d produced %d partitions: %v", spread, len(parts), tx.Ops)
			}
			// Declared partition set must match the actual footprint.
			if len(tx.Partitions) != spread {
				t.Fatalf("Partitions field = %v, want %d entries", tx.Partitions, spread)
			}
		}
	}
}

func TestMultiPartitionPctMix(t *testing.T) {
	const P = 8
	pf := txn.HashPartitioner(P)
	c := &YCSB{NumRecords: 100000, OpsPerTxn: 10, Partitions: P, Spread: 2, MultiPartitionPct: 50}
	rng := newRand()
	single, dual := 0, 0
	for i := 0; i < 2000; i++ {
		tx := c.Next(0, rng)
		parts := map[int]bool{}
		for _, op := range tx.Ops {
			parts[pf(op.Table, op.Key)] = true
		}
		switch len(parts) {
		case 1:
			single++
		case 2:
			dual++
		default:
			t.Fatalf("txn spans %d partitions", len(parts))
		}
	}
	if single < 800 || dual < 800 {
		t.Fatalf("mix skewed: single=%d dual=%d", single, dual)
	}
}

func TestHotKeysRespectPartitionConstraint(t *testing.T) {
	// Hot set 64 over 16 partitions leaves 4 hot keys per partition; a
	// single-partition txn's hot ops must come from its own partition.
	const P = 16
	pf := txn.HashPartitioner(P)
	c := &YCSB{NumRecords: 100000, OpsPerTxn: 10, HotRecords: 64, HotOps: 2, Partitions: P, Spread: 1, MultiPartitionPct: 100}
	rng := newRand()
	for i := 0; i < 300; i++ {
		tx := c.Next(0, rng)
		home := pf(0, tx.Ops[0].Key)
		for _, op := range tx.Ops {
			if pf(op.Table, op.Key) != home {
				t.Fatalf("key %d escapes partition %d", op.Key, home)
			}
		}
		if tx.Ops[0].Key >= 64 || tx.Ops[1].Key >= 64 {
			t.Fatalf("hot ops not hot: %v", tx.Ops[:2])
		}
	}
}

func TestHotFallbackWhenHotSetTooSmall(t *testing.T) {
	// 1 hot key per partition: the second hot op cannot stay hot and must
	// fall back to the cold range rather than spin or duplicate.
	const P = 64
	c := &YCSB{NumRecords: 100000, OpsPerTxn: 10, HotRecords: 64, HotOps: 2, Partitions: P, Spread: 1, MultiPartitionPct: 100}
	rng := newRand()
	for i := 0; i < 100; i++ {
		tx := c.Next(0, rng)
		seen := map[uint64]bool{}
		for _, op := range tx.Ops {
			if seen[op.Key] {
				t.Fatalf("duplicate key %d", op.Key)
			}
			seen[op.Key] = true
		}
	}
}

func TestLogicRunsAgainstCtx(t *testing.T) {
	c := &YCSB{NumRecords: 100, OpsPerTxn: 4, HotRecords: 8, HotOps: 2}
	rng := newRand()
	tx := c.Next(0, rng)
	ctx := &fakeCtx{store: map[uint64][]byte{}}
	if err := tx.Logic(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.writes != 4 {
		t.Fatalf("writes = %d", ctx.writes)
	}
	for _, op := range tx.Ops {
		if getU64(ctx.store[op.Key]) != 1 {
			t.Fatalf("key %d not incremented", op.Key)
		}
	}
	ro := &YCSB{NumRecords: 100, OpsPerTxn: 4, ReadOnly: true}
	ctx = &fakeCtx{store: map[uint64][]byte{}}
	if err := ro.Next(0, rng).Logic(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.reads != 4 || ctx.writes != 0 {
		t.Fatalf("read-only body: reads=%d writes=%d", ctx.reads, ctx.writes)
	}
}

type fakeCtx struct {
	store  map[uint64][]byte
	reads  int
	writes int
	scans  int
}

func (f *fakeCtx) rec(key uint64) []byte {
	if f.store[key] == nil {
		f.store[key] = make([]byte, 8)
	}
	return f.store[key]
}

func (f *fakeCtx) Read(_ int, key uint64) ([]byte, error) {
	f.reads++
	return f.rec(key), nil
}

func (f *fakeCtx) Write(_ int, key uint64) ([]byte, error) {
	f.writes++
	return f.rec(key), nil
}

func (f *fakeCtx) Insert(_ int, key uint64, v []byte) error {
	f.store[key] = append([]byte(nil), v...)
	return nil
}

func (f *fakeCtx) Scan(_ int, lo, hi uint64, fn func(key uint64, rec []byte) error) error {
	f.scans++
	for key := lo; key < hi; key++ {
		f.reads++
		if err := fn(key, f.rec(key)); err != nil {
			return err
		}
	}
	return nil
}

func TestTransferConservesSumUnderFakeCtx(t *testing.T) {
	c := &Transfer{NumRecords: 16}
	rng := newRand()
	ctx := &fakeCtx{store: map[uint64][]byte{}}
	for i := uint64(0); i < 16; i++ {
		putU64(ctx.rec(i), 100)
	}
	for i := 0; i < 500; i++ {
		tx := c.Next(0, rng)
		if tx.Ops[0].Key == tx.Ops[1].Key {
			t.Fatal("transfer src == dst")
		}
		if err := tx.Logic(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var sum uint64
	for i := uint64(0); i < 16; i++ {
		sum += getU64(ctx.rec(i))
	}
	if sum != 1600 {
		t.Fatalf("sum = %d, want 1600", sum)
	}
}

func TestPartitionSetDerivation(t *testing.T) {
	pf := txn.HashPartitioner(4)
	tx := &txn.Txn{Ops: []txn.Op{{Key: 0}, {Key: 5}, {Key: 4}, {Key: 2}}}
	got := tx.PartitionSet(pf)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("PartitionSet = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PartitionSet = %v, want %v", got, want)
		}
	}
}

// --- YCSB-E scan mix ------------------------------------------------------

func TestScanKnobValidation(t *testing.T) {
	bad := []*YCSB{
		{NumRecords: 1000, OpsPerTxn: 10, ScanPct: -1, MaxScanLen: 10},
		{NumRecords: 1000, OpsPerTxn: 10, ScanPct: 101, MaxScanLen: 10},
		{NumRecords: 1000, OpsPerTxn: 10, ScanPct: 50},                   // no MaxScanLen
		{NumRecords: 1000, OpsPerTxn: 10, ScanPct: 50, MaxScanLen: 1001}, // > NumRecords
		{NumRecords: 1000, OpsPerTxn: 10, ScanPct: 50, MaxScanLen: -3},   // negative
		{NumRecords: 1000, OpsPerTxn: 10, MaxScanLen: 10},                // MaxScanLen without ScanPct
		{NumRecords: 1000, OpsPerTxn: 10, ScanPct: 50, MaxScanLen: 10, Spread: 2, Partitions: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	ok := &YCSB{NumRecords: 1000, OpsPerTxn: 10, ScanPct: 95, MaxScanLen: 100}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScanTxnShape(t *testing.T) {
	c := &YCSB{NumRecords: 1000, OpsPerTxn: 10, ScanPct: 100, MaxScanLen: 50}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := newRand()
	for i := 0; i < 200; i++ {
		tx := c.Next(0, rng)
		if len(tx.Ranges) != 1 {
			t.Fatalf("ranges = %v", tx.Ranges)
		}
		r := tx.Ranges[0]
		n := r.Hi - r.Lo
		if n < 1 || n > 50 || r.Hi > 1000 || r.Mode != txn.Read {
			t.Fatalf("bad range %v", r)
		}
		// Every scanned key is individually declared for planned engines.
		if uint64(len(tx.Ops)) != n {
			t.Fatalf("ops %d != range width %d", len(tx.Ops), n)
		}
		for j, op := range tx.Ops {
			if op.Key != r.Lo+uint64(j) || op.Mode != txn.Read {
				t.Fatalf("op %d = %v, range %v", j, op, r)
			}
		}
	}
}

func TestScanFractionRoughlyHonored(t *testing.T) {
	c := &YCSB{NumRecords: 1000, OpsPerTxn: 10, ScanPct: 30, MaxScanLen: 5}
	rng := newRand()
	scans := 0
	for i := 0; i < 1000; i++ {
		if len(c.Next(0, rng).Ranges) > 0 {
			scans++
		}
	}
	if scans < 200 || scans > 400 {
		t.Fatalf("scan fraction = %d/1000, want ~300", scans)
	}
}

func TestScanLogicSumsRange(t *testing.T) {
	c := &YCSB{NumRecords: 100, OpsPerTxn: 4, ScanPct: 100, MaxScanLen: 8}
	rng := newRand()
	tx := c.Next(0, rng)
	ctx := &fakeCtx{store: map[uint64][]byte{}}
	if err := tx.Logic(ctx); err != nil {
		t.Fatal(err)
	}
	r := tx.Ranges[0]
	if ctx.scans != 1 || uint64(ctx.reads) != r.Hi-r.Lo {
		t.Fatalf("scans=%d reads=%d range=%v", ctx.scans, ctx.reads, r)
	}
}

func TestReadOnlyPctValidation(t *testing.T) {
	bad := []*YCSB{
		{NumRecords: 1000, OpsPerTxn: 10, ReadOnlyPct: -1},
		{NumRecords: 1000, OpsPerTxn: 10, ReadOnlyPct: 101},
		{NumRecords: 1000, OpsPerTxn: 10, ReadOnlyPct: 50, ReadOnly: true}, // mutually exclusive
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	ok := &YCSB{NumRecords: 1000, OpsPerTxn: 10, ReadOnlyPct: 95, HotRecords: 64, HotOps: 2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyPctFlagsAndDeclares(t *testing.T) {
	c := &YCSB{NumRecords: 1000, OpsPerTxn: 10, ReadOnlyPct: 50}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := newRand()
	flagged := 0
	for i := 0; i < 1000; i++ {
		tx := c.Next(0, rng)
		if !tx.ReadOnly {
			continue
		}
		flagged++
		// Snapshot-flagged transactions still declare their reads so
		// engines without a versioned table can fall back to locking.
		if len(tx.Ops) != 10 {
			t.Fatalf("read-only txn declares %d ops", len(tx.Ops))
		}
		for _, op := range tx.Ops {
			if op.Mode != txn.Read {
				t.Fatalf("read-only txn declares %v", op)
			}
		}
	}
	if flagged < 400 || flagged > 600 {
		t.Fatalf("flagged fraction = %d/1000, want ~500", flagged)
	}
	// Legacy ReadOnly keeps the locking path: never flagged.
	legacy := &YCSB{NumRecords: 1000, OpsPerTxn: 10, ReadOnly: true}
	for i := 0; i < 50; i++ {
		if legacy.Next(0, rng).ReadOnly {
			t.Fatal("YCSB.ReadOnly flagged a snapshot transaction")
		}
	}
}

func TestAnalyticsValidateAndShape(t *testing.T) {
	for i, bad := range []*Analytics{
		{NumRecords: 100, ScanLen: 0},
		{NumRecords: 100, ScanLen: 101},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, bad)
		}
	}
	rng := newRand()
	snap := &Analytics{NumRecords: 100, ScanLen: 10, Snapshot: true}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	tx := snap.Next(0, rng)
	if !tx.ReadOnly || len(tx.Ops) != 0 || len(tx.Ranges) != 1 {
		t.Fatalf("snapshot scan shape: ReadOnly=%v ops=%d ranges=%d", tx.ReadOnly, len(tx.Ops), len(tx.Ranges))
	}
	lock := &Analytics{NumRecords: 100, ScanLen: 10}
	tx = lock.Next(0, rng)
	r := tx.Ranges[0]
	if tx.ReadOnly || uint64(len(tx.Ops)) != r.Hi-r.Lo || r.Hi > 100 {
		t.Fatalf("locking scan shape: ReadOnly=%v ops=%d range=%v", tx.ReadOnly, len(tx.Ops), r)
	}
}
