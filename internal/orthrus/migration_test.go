package orthrus

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// The default two-level configuration must reproduce the historical
// record → CC mapping bit for bit: key % P % cc == key % cc when P is a
// multiple of cc.
func TestDefaultRoutingMatchesLegacyHash(t *testing.T) {
	db, _ := newDB(8)
	for _, cc := range []int{1, 2, 3, 5, 8} {
		eng := New(Config{DB: db, CCThreads: cc, ExecThreads: 1})
		s := eng.newRunState()
		rt := s.rt.Load()
		if rt.epoch != 0 {
			t.Fatalf("fresh engine at epoch %d", rt.epoch)
		}
		for key := uint64(0); key < 4096; key++ {
			pid := s.pidOf(0, key)
			if got, want := int(rt.owner[pid]), int(key%uint64(cc)); got != want {
				t.Fatalf("cc=%d key=%d routed to %d, legacy hash says %d", cc, key, got, want)
			}
		}
	}
}

// A quiet-session migration must publish the epoch pair, hand the shard
// over, and leave the engine fully functional under the new table.
func TestMigrateDirect(t *testing.T) {
	const records = 256
	db, tbl := newDB(records)
	eng := New(Config{DB: db, CCThreads: 2, ExecThreads: 2, LogicalPartitions: 8})
	ses := eng.Start().(*session)

	rt := ses.s.rt.Load()
	if int(rt.owner[0]) != 0 {
		t.Fatalf("partition 0 initially owned by %d", rt.owner[0])
	}
	if n := ses.migrate([]int{0, 3}, []int{1, 1}); n != 1 {
		// pid 3 is already owned by thread 1 (3 mod 2), so only pid 0 moves.
		t.Fatalf("migrate moved %d partitions, want 1", n)
	}
	rt = ses.s.rt.Load()
	if rt.epoch != 2 {
		t.Fatalf("epoch = %d after one migration, want 2 (quiesce+publish)", rt.epoch)
	}
	if int(rt.owner[0]) != 1 || rt.held != nil {
		t.Fatalf("post-migration table wrong: owner[0]=%d held=%v", rt.owner[0], rt.held)
	}
	// Re-migrating to the same owner is a no-op and publishes nothing.
	if n := ses.migrate([]int{0}, []int{1}); n != 0 {
		t.Fatalf("no-op migrate moved %d", n)
	}
	if e := ses.s.rt.Load().epoch; e != 2 {
		t.Fatalf("no-op migrate bumped epoch to %d", e)
	}

	// Traffic over the migrated table must still be exact.
	var done sync.WaitGroup
	rng := rand.New(rand.NewSource(1))
	const n, k = 400, 4
	for i := 0; i < n; i++ {
		tx := incrementTxn(tbl, records, k, rng)
		done.Add(1)
		ses.Submit(tx, func(bool) { done.Done() })
	}
	done.Wait()
	res := ses.Close()
	if res.Totals.Committed != n {
		t.Fatalf("committed %d, want %d", res.Totals.Committed, n)
	}
	if got := sumTable(db, tbl, records); got != n*k {
		t.Fatalf("increments = %d, want %d", got, n*k)
	}
}

// incrementTxn builds a transaction writing k distinct uniformly random
// keys, incrementing each record's counter — exact access set, so it can
// never abort, and every commit is observable in the table sum.
func incrementTxn(tbl int, records uint64, k int, rng *rand.Rand) *txn.Txn {
	ops := make([]txn.Op, 0, k)
	used := make(map[uint64]bool, k)
	for len(ops) < k {
		key := uint64(rng.Int63n(int64(records)))
		if used[key] {
			continue
		}
		used[key] = true
		ops = append(ops, txn.Op{Table: tbl, Key: key, Mode: txn.Write})
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

// The migration correctness test the refactor hangs on: routing epochs
// flip continuously while transactions are in flight, and every
// submitted transaction must complete exactly once, with no lost or
// duplicate grants (the table sum counts every increment) and no
// deadlock (the test terminates). Run under -race this also checks the
// quiesce/drain/handoff handshake for data races.
func TestMigrationEpochFlipConservation(t *testing.T) {
	underProcs(t, testMigrationEpochFlipConservation)
}

func testMigrationEpochFlipConservation(t *testing.T, procs int) {
	const (
		records    = 256
		parts      = 12
		ccThreads  = 3
		submitters = 4
		perSub     = 300
		k          = 4
	)
	db, tbl := newDB(records)
	eng := New(Config{DB: db, CCThreads: ccThreads, ExecThreads: 3, LogicalPartitions: parts})
	ses := eng.Start().(*session)

	var (
		commits   atomic.Int64
		perTxn    [submitters * perSub]atomic.Int32
		submitted sync.WaitGroup
	)
	for s := 0; s < submitters; s++ {
		submitted.Add(1)
		go func(s int) {
			defer submitted.Done()
			rng := rand.New(rand.NewSource(int64(s) + 42))
			for i := 0; i < perSub; i++ {
				idx := s*perSub + i
				ses.Submit(incrementTxn(tbl, records, k, rng), func(committed bool) {
					if !committed {
						t.Error("transaction reported uncommitted")
					}
					if perTxn[idx].Add(1) != 1 {
						t.Errorf("txn %d completed more than once", idx)
					}
					commits.Add(1)
				})
			}
		}(s)
	}

	// Migrator: shuffle ownership as fast as the protocol allows until
	// all submitters are done.
	stopMig := make(chan struct{})
	var migrated atomic.Int64
	var migWg sync.WaitGroup
	migWg.Add(1)
	go func() {
		defer migWg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stopMig:
				return
			default:
			}
			pid := rng.Intn(parts)
			dst := rng.Intn(ccThreads)
			migrated.Add(int64(ses.migrate([]int{pid}, []int{dst})))
		}
	}()

	submitted.Wait()
	ses.Drain()
	close(stopMig)
	migWg.Wait()
	res := ses.Close()

	const total = submitters * perSub
	if commits.Load() != total || res.Totals.Committed != total {
		t.Fatalf("commits: callback=%d engine=%d, want %d", commits.Load(), res.Totals.Committed, total)
	}
	for i := range perTxn {
		if got := perTxn[i].Load(); got != 1 {
			t.Fatalf("txn %d completed %d times", i, got)
		}
	}
	if got := sumTable(db, tbl, records); got != total*k {
		t.Fatalf("increments = %d, want %d (lost or duplicated grants)", got, total*k)
	}
	if migrated.Load() == 0 {
		t.Fatal("migrator never moved a partition; test exercised nothing")
	}
	if e := ses.s.rt.Load().epoch; e < 2 {
		t.Fatalf("final epoch %d, want >= 2", e)
	}
	if got, want := eng.Messages().Workers, min(ccThreads+3, procs); got != want {
		t.Fatalf("Workers = %d, want %d", got, want)
	}
}

// The adaptive controller must detect a skewed partition load and move
// ownership, without breaking conservation.
func TestControllerRebalancesSkew(t *testing.T) {
	const records = 1 << 14
	db, tbl := newDB(records)
	eng := New(Config{
		DB: db, CCThreads: 2, ExecThreads: 4,
		LogicalPartitions: 8,
		Partition:         txn.RangePartitioner(8, records),
		Controller:        ControllerConfig{Enable: true, Interval: time.Millisecond},
	})
	// Half the ops hammer the first range partition; the controller
	// should shed cold partitions off its owner.
	src := &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 10,
		HotRecords: records / 8, HotOps: 5}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	res := eng.Run(src, 300*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	want := res.Totals.Committed * 10
	if got := sumTable(db, tbl, records); got != want {
		t.Fatalf("increments = %d, want %d", got, want)
	}
	cs := eng.ControllerStats()
	if cs.Samples == 0 {
		t.Fatal("controller never sampled")
	}
	if cs.Migrations == 0 || cs.PartitionsMoved == 0 {
		t.Fatalf("controller never migrated under heavy skew: %+v", cs)
	}
	if cs.FinalEpoch == 0 {
		t.Fatalf("routing epoch never advanced: %+v", cs)
	}
}

// Per-CC-thread message breakdowns must sum to the send-side totals, and
// final partition ownership must cover the whole logical space.
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
	parts := 0
	hiWaterSeen := false
	for _, cs := range m.PerCC {
		acq += cs.Acquires
		fwd += cs.Forwards
		rel += cs.Releases
		grants += cs.Grants
		parts += cs.Partitions
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
	if parts != 4*3 {
		t.Fatalf("owned partitions sum to %d, want LogicalPartitions=%d", parts, 4*3)
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
		{"negative-partitions", func(c *Config) { c.LogicalPartitions = -4 }},
		{"routing-wrong-len", func(c *Config) { c.Routing = []int{0, 1} }},
		{"routing-out-of-range", func(c *Config) {
			c.LogicalPartitions = 4
			c.Routing = []int{0, 1, 2, 1} // CC thread 2 does not exist
		}},
		{"negative-controller-knob", func(c *Config) {
			c.Controller = ControllerConfig{Enable: true, MaxMoves: -1}
		}},
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

// An explicit Routing table equal to the default must behave like the
// default (smoke check that the Routing plumbing is wired through).
func TestExplicitRoutingHonored(t *testing.T) {
	const records = 64
	db, tbl := newDB(records)
	// Invert the default assignment: pid i → cc (P-1-i) mod cc.
	routing := make([]int, 8)
	for i := range routing {
		routing[i] = (len(routing) - 1 - i) % 2
	}
	eng := New(Config{DB: db, CCThreads: 2, ExecThreads: 2,
		LogicalPartitions: 8, Routing: routing})
	ses := eng.Start().(*session)
	rt := ses.s.rt.Load()
	for i, want := range routing {
		if int(rt.owner[i]) != want {
			t.Fatalf("owner[%d] = %d, want %d", i, rt.owner[i], want)
		}
	}
	var done sync.WaitGroup
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		done.Add(1)
		ses.Submit(incrementTxn(tbl, records, 3, rng), func(bool) { done.Done() })
	}
	done.Wait()
	res := ses.Close()
	if res.Totals.Committed != 200 {
		t.Fatalf("committed %d, want 200", res.Totals.Committed)
	}
	if got := sumTable(db, tbl, records); got != 200*3 {
		t.Fatalf("increments = %d, want %d", got, 200*3)
	}
}
