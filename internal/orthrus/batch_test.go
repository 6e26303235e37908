package orthrus

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/spsc"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Driver equivalence: a fixed set of transfer transactions submitted
// through the Session surface must commit exactly once each — identical
// transaction counts — whether the message plane runs unbatched
// (BatchSize=1) or batched (BatchSize=k), and balances must be conserved
// in both.
func TestBatchDriverEquivalence(t *testing.T) {
	const records, submitters, perSubmitter = 16, 4, 250
	for _, batch := range []int{1, DefaultBatchSize} {
		db, tbl := newDB(records)
		for k := uint64(0); k < records; k++ {
			storage.PutU64(db.Table(tbl).Get(k), 0, 1000)
		}
		eng := New(Config{DB: db, CCThreads: 3, ExecThreads: 3, BatchSize: batch})
		src := &workload.Transfer{Table: tbl, NumRecords: records}
		ses := eng.Start()
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(s)))
				for i := 0; i < perSubmitter; i++ {
					ses.Submit(src.Next(s, rng), nil)
				}
			}(s)
		}
		wg.Wait()
		ses.Drain()
		res := ses.Close()
		if got, want := res.Totals.Committed, uint64(submitters*perSubmitter); got != want {
			t.Fatalf("BatchSize=%d: committed %d, want %d", batch, got, want)
		}
		if got := sumTable(db, tbl, records); got != records*1000 {
			t.Fatalf("BatchSize=%d: sum = %d, want %d", batch, got, records*1000)
		}
	}
}

// Batching must change only how many ring operations carry the traffic,
// never the §3.3 message counts themselves: the Ncc+1 forwarding
// accounting holds at every batch size, and with BatchSize=1 each ring
// operation carries exactly one message (the unbatched ablation is
// bit-identical in its accounting).
func TestBatchPreservesMessageCounts(t *testing.T) {
	const ncc = 4
	for _, batch := range []int{1, DefaultBatchSize} {
		db, tbl := newDB(1 << 12)
		eng := New(Config{DB: db, CCThreads: ncc, ExecThreads: 2, BatchSize: batch})
		src := &fixedSpreadSource{table: tbl, k: ncc, cc: ncc, n: 1 << 12}
		res := eng.Run(src, 80*time.Millisecond)
		if res.Totals.Committed == 0 {
			t.Fatalf("BatchSize=%d: no commits", batch)
		}
		m := eng.Messages()
		perTxn := float64(m.AcquisitionMessages()) / float64(res.Totals.Committed)
		if perTxn != float64(ncc+1) {
			t.Fatalf("BatchSize=%d: acquisition messages per txn = %v, want %d (stats %+v)",
				batch, perTxn, ncc+1, m)
		}
		if batch == 1 {
			if m.EnqueueOps != m.TotalMessages() || m.DequeueOps != m.TotalMessages() {
				t.Fatalf("BatchSize=1: ring ops (enq %d, deq %d) must equal messages (%d)",
					m.EnqueueOps, m.DequeueOps, m.TotalMessages())
			}
		}
	}
}

// The acceptance check for the batched message plane: under saturated
// closed-loop load with the default BatchSize, the ring-operation
// counters must show measurably fewer atomic ring operations than
// messages sent — the cost amortization the batching exists for.
func TestBatchingReducesRingOps(t *testing.T) {
	db, tbl := newDB(1 << 12)
	eng := New(Config{DB: db, CCThreads: 4, ExecThreads: 4})
	src := &workload.YCSB{Table: tbl, NumRecords: 1 << 12, OpsPerTxn: 8,
		Partitions: 4, Spread: 4, MultiPartitionPct: 100}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	res := eng.Run(src, 200*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	m := eng.Messages()
	total := m.TotalMessages()
	if m.EnqueueOps == 0 || m.DequeueOps == 0 {
		t.Fatalf("ring-operation counters not populated: %+v", m)
	}
	// Each message is published once and consumed once; without batching
	// that is exactly `total` operations on each side. Require a
	// measurable saving, not a marginal one.
	if m.EnqueueOps+m.DequeueOps >= (2*total*9)/10 {
		t.Fatalf("batching saved too little: %d enqueue + %d dequeue ops for %d messages (%+v)",
			m.EnqueueOps, m.DequeueOps, total, m)
	}
	if m.MessagesPerEnqueue() <= 1 {
		t.Fatalf("messages per enqueue op = %v, want > 1", m.MessagesPerEnqueue())
	}
}

// BatchSize 0 means DefaultBatchSize on every thread, and nothing adapts
// it: each exec thread publishes an outbox at the default batch and not
// before, every drain buffer holds the default batch, and after a
// contended run the session reports the default for every exec thread.
func TestDefaultBatchSizeEverywhere(t *testing.T) {
	const ncc, nexec = 3, 2
	db, _ := newDB(8)
	ses := newTestSession(Config{DB: db, CCThreads: ncc, ExecThreads: nexec})
	if got := ses.s.cfg.BatchSize; got != DefaultBatchSize {
		t.Fatalf("BatchSize 0 became %d, want DefaultBatchSize %d", got, DefaultBatchSize)
	}
	for id := 0; id < nexec; id++ {
		x := newExecThread(ses, id, ses.set.Thread(id))
		if len(x.scratch) != DefaultBatchSize {
			t.Fatalf("exec %d drains %d grants at a time, want %d", id, len(x.scratch), DefaultBatchSize)
		}
		ring := ses.s.execToCC[id][0].(*spsc.Ring[message])
		for i := 0; i < DefaultBatchSize; i++ {
			if ring.Len() != 0 {
				t.Fatalf("exec %d published after %d of %d pushes", id, i, DefaultBatchSize)
			}
			x.push(0, message{kind: msgRelease})
		}
		if got := ring.Len(); got != DefaultBatchSize {
			t.Fatalf("exec %d published %d at the batch, want %d", id, got, DefaultBatchSize)
		}
	}
	for id := 0; id < ncc; id++ {
		if c := newCCThread(ses.s, id); len(c.inbuf) != DefaultBatchSize {
			t.Fatalf("CC %d drains %d messages at a time, want %d", id, len(c.inbuf), DefaultBatchSize)
		}
	}

	db, tbl := newDB(1 << 10)
	eng := New(Config{DB: db, CCThreads: ncc, ExecThreads: nexec})
	src := &workload.YCSB{Table: tbl, NumRecords: 1 << 10, OpsPerTxn: 10, HotRecords: 64, HotOps: 2}
	if res := eng.Run(src, 100*time.Millisecond); res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if got := eng.Messages().ExecBatch; !slices.Equal(got, []int{DefaultBatchSize, DefaultBatchSize}) {
		t.Fatalf("ExecBatch = %v, want DefaultBatchSize on each of %d exec threads", got, nexec)
	}
}

// Correctness sweep across batch sizes, including batches larger than the
// ring capacity (partial publishes: batch64-smallring leaves most of every
// outbox behind on every step, and hung a fold that still waited for room)
// and the exec-mediated and shared-table ablations — each on every worker
// layout: six logical threads on one worker, on two, and one each.
func TestBatchSizeSweepConservation(t *testing.T) {
	const records = 8
	underProcs(t, func(t *testing.T, procs int) {
		for _, tc := range []struct {
			name string
			cfg  Config
		}{
			{"batch2", Config{CCThreads: 3, ExecThreads: 3, BatchSize: 2}},
			{"batch64-smallring", Config{CCThreads: 3, ExecThreads: 3, BatchSize: 64, QueueCap: 4}},
			{"batch8-naive", Config{CCThreads: 3, ExecThreads: 3, BatchSize: 8, DisableForwarding: true}},
			{"batch8-shared", Config{CCThreads: 3, ExecThreads: 3, BatchSize: 8, SharedTable: true}},
		} {
			tc := tc
			t.Run(tc.name, func(t *testing.T) {
				db, tbl := newDB(records)
				for k := uint64(0); k < records; k++ {
					storage.PutU64(db.Table(tbl).Get(k), 0, 1000)
				}
				cfg := tc.cfg
				cfg.DB = db
				eng := New(cfg)
				src := &workload.Transfer{Table: tbl, NumRecords: records}
				res := eng.Run(src, 120*time.Millisecond)
				if res.Totals.Committed == 0 {
					t.Fatal("no commits")
				}
				if got := sumTable(db, tbl, records); got != records*1000 {
					t.Fatalf("sum = %d, want %d", got, records*1000)
				}
				if got, want := eng.Messages().Workers, min(6, procs); got != want {
					t.Fatalf("Workers = %d, want min(6 threads, %d procs) = %d", got, procs, want)
				}
			})
		}
	})
}
