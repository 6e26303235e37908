package orthrus

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// underProcs runs body as one subtest per worker layout: GOMAXPROCS 1
// (every logical thread folded onto one worker), 2 (the ledger's box) and
// 8 (one worker per logical thread for every engine in this package's
// tests, whatever the machine). A hung message plane — the failure a
// fold that waits for a co-hosted thread produces — crashes the run with
// every goroutine's stack after a minute instead of sitting out go
// test's ten.
func underProcs(t *testing.T, body func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			watchdog := time.AfterFunc(time.Minute, func() {
				debug.SetTraceback("all")
				panic(t.Name() + ": still running after a minute: the message plane hung")
			})
			defer watchdog.Stop()
			body(t, procs)
		})
	}
}

// Every logical thread — a tcp node's net stepper included — is hosted
// exactly once, on min(threads, procs) workers, and exec i shares a worker
// with CC i whenever threads are folded at all.
func TestLayoutTable(t *testing.T) {
	for _, shape := range []struct {
		name       string
		nExec, nCC int
		net        bool
	}{
		{"2cc/2ex", 2, 2, false},
		{"3cc/1ex", 1, 3, false},
		{"1cc/5ex", 5, 1, false},
		{"tcp cc node, 3cc", 0, 3, true},
		{"tcp exec node, 3ex", 3, 0, true},
		{"tcp exec node, 1ex", 1, 0, true},
	} {
		for _, procs := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s on %d procs", shape.name, procs)
			threads := shape.nExec + shape.nCC
			if shape.net {
				threads++
			}
			workers := layout(shape.nExec, shape.nCC, shape.net, procs)
			if want := min(threads, procs); len(workers) != want {
				t.Errorf("%s: %d workers, want min(%d threads, %d procs) = %d", name, len(workers), threads, procs, want)
			}
			execOn := make(map[int]int)
			ccOn := make(map[int]int)
			netOn := make(map[int]int)
			hosted := 0
			for w, slots := range workers {
				if len(slots) == 0 {
					t.Errorf("%s: worker %d hosts nothing", name, w)
				}
				for _, sl := range slots {
					on, n := execOn, shape.nExec
					switch {
					case sl.net && shape.net:
						on, n = netOn, 1
					case sl.cc:
						on, n = ccOn, shape.nCC
					}
					if _, dup := on[sl.id]; dup || sl.id < 0 || sl.id >= n {
						t.Errorf("%s: worker %d hosts %+v twice or out of range", name, w, sl)
					}
					on[sl.id] = w
					hosted++
				}
			}
			if hosted != threads {
				t.Errorf("%s: %d logical threads hosted, want %d", name, hosted, threads)
			}
			if len(workers) == threads {
				continue // one thread per worker: the paper's layout, nothing co-hosted
			}
			for i := 0; i < shape.nExec && i < shape.nCC; i++ {
				if execOn[i] != ccOn[i] {
					t.Errorf("%s: exec %d on worker %d but CC %d on worker %d", name, i, execOn[i], i, ccOn[i])
				}
			}
		}
	}
}

// newTestSession is a session with its message plane built and no worker
// started, for tests that step logical threads by hand.
func newTestSession(cfg Config) *session { return New(cfg).newSession() }

// One exec step runs every read-only submission it admits before it
// returns, grouped: with RO, RO, RW, RO and then more read-only
// submissions than a group holds in the intake, the step acknowledges
// every read-only transaction in pickup order, in two groups (the
// read-write one joins neither and is submitted at once, before the first
// group runs), and publishes the read-write transaction's acquire, which
// the CC thread then grants.
func TestStepRunsReadOnlyGroupsWithinTheStep(t *testing.T) {
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "v", NumRecords: 8, RecordSize: 64, Versioned: true})
	ses := newTestSession(Config{DB: db, CCThreads: 1, ExecThreads: 1})
	x := newExecThread(ses, 0, ses.set.Thread(0))
	c := newCCThread(ses.s, 0)

	type run struct{ id, group, inflight int }
	var runs []run
	var acked []int
	ro := func(id int) {
		key := uint64(id % 8)
		tx := &txn.Txn{ReadOnly: true, Ops: []txn.Op{{Table: tbl, Key: key, Mode: txn.Read}}}
		tx.Logic = func(ctx txn.Ctx) error {
			runs = append(runs, run{id, x.grouped, x.inflight})
			_, err := ctx.Read(tbl, key)
			return err
		}
		ses.Submit(tx, func(ok bool) {
			if !ok {
				t.Errorf("read-only %d acknowledged uncommitted", id)
			}
			acked = append(acked, id)
		})
	}
	rwAcked := false
	rw := &txn.Txn{
		Ops: []txn.Op{{Table: tbl, Key: 3, Mode: txn.Write}},
		Logic: func(ctx txn.Ctx) error {
			rec, err := ctx.Write(tbl, 3)
			if err == nil {
				storage.PutU64(rec, 0, 42)
			}
			return err
		},
	}
	const nRO = 3 + snapGroup + 3
	ro(0)
	ro(1)
	ses.Submit(rw, func(ok bool) { rwAcked = ok })
	for id := 2; id < nRO; id++ {
		ro(id)
	}

	if progress, _ := x.step(); !progress {
		t.Fatal("exec step with queued submissions made no progress")
	}
	if len(acked) != nRO {
		t.Fatalf("one step acknowledged %d of %d read-only transactions", len(acked), nRO)
	}
	for i, r := range runs {
		want := run{id: i, group: snapGroup, inflight: 1}
		if i >= snapGroup {
			want.group = nRO - snapGroup
		}
		if r != want || acked[i] != i {
			t.Fatalf("read-only run %d = %+v acked %d, want %+v acked %d", i, r, acked[i], want, i)
		}
	}
	if st := ses.set.Thread(0); st.SnapTxns != nRO {
		t.Fatalf("SnapTxns = %d, want %d", st.SnapTxns, nRO)
	}
	if rwAcked {
		t.Fatal("read-write transaction acknowledged before its grant")
	}
	if progress, _ := c.step(); !progress { // the step published the acquire
		t.Fatal("CC step found no acquire: the exec step did not publish it")
	}
	if progress, _ := x.step(); !progress || !rwAcked {
		t.Fatalf("exec step with a grant in its ring: progress=%v acked=%v", progress, rwAcked)
	}
}

// The whole commit path — admit, acquire, grant, execute, release, retire
// — runs as plain method calls on one goroutine: the fold at its
// smallest. Along the way: a step that finds nothing reads no clock
// (counted, not timed), one commit reads it exactly as designed — pickup,
// logic start and logic end, plus one opening and one closing reading per
// productive step, where pickup doubles as the opening one — and each
// logical thread retires only once its inputs and outboxes are empty.
func TestStepsByHandAndIdleStepReadsNoClock(t *testing.T) {
	db, tbl := newDB(8)
	ses := newTestSession(Config{DB: db, CCThreads: 1, ExecThreads: 1})
	x := newExecThread(ses, 0, ses.set.Thread(0))
	c := newCCThread(ses.s, 0)
	reads := 0
	x.now = func() time.Time { reads++; return metrics.Now() }

	for i := 0; i < 1000; i++ {
		if progress, exit := x.step(); progress || exit {
			t.Fatalf("idle exec step %d: progress=%v exit=%v", i, progress, exit)
		}
		if progress, exit := c.step(); progress || exit {
			t.Fatalf("idle CC step %d: progress=%v exit=%v", i, progress, exit)
		}
	}
	if reads != 0 {
		t.Fatalf("1000 idle exec steps read the clock %d times, want 0", reads)
	}

	acked := false
	tx := &txn.Txn{
		Ops: []txn.Op{{Table: tbl, Key: 3, Mode: txn.Write}},
		Logic: func(ctx txn.Ctx) error {
			rec, err := ctx.Write(tbl, 3)
			if err != nil {
				return err
			}
			storage.PutU64(rec, 0, 42)
			return nil
		},
	}
	ses.Submit(tx, func(ok bool) { acked = ok })

	if progress, _ := x.step(); !progress { // admit, plan, publish the acquire
		t.Fatal("exec step with a queued submission made no progress")
	}
	if reads != 2 {
		t.Fatalf("admitting step read the clock %d times, want 2 (pickup, which opens the step; the step's close)", reads)
	}
	if progress, _ := c.step(); !progress { // lock, grant
		t.Fatal("CC step with an acquire in its ring made no progress")
	}
	if acked {
		t.Fatal("acknowledged before the grant was handled")
	}
	if progress, _ := x.step(); !progress { // execute, commit, release
		t.Fatal("exec step with a grant in its ring made no progress")
	}
	if !acked {
		t.Fatal("transaction not acknowledged after its grant was handled")
	}
	if reads != 2+4 {
		t.Fatalf("granted step read the clock %d times, want 4 (the step's open, logic start, logic end, the step's close)", reads-2)
	}
	if got := storage.GetU64(db.Table(tbl).Get(3), 0); got != 42 {
		t.Fatalf("record = %d, want 42", got)
	}

	// Retirement, in Close's order. The release is still in the exec→CC
	// ring: the exec thread may go (its outbox is empty), the CC thread
	// must handle it first.
	idle := reads
	ses.Intake.Close()
	if _, exit := x.step(); !exit {
		t.Fatal("exec thread did not retire: nothing in flight, queue and outboxes empty, stop set")
	}
	if st := ses.set.Thread(0); st.WaitNanos <= 0 || st.LockNanos <= 0 || st.ExecNanos <= 0 {
		t.Fatalf("retired exec thread's buckets: exec=%d lock=%d wait=%d, want all positive", st.ExecNanos, st.LockNanos, st.WaitNanos)
	}
	if reads != idle+1 {
		t.Fatalf("retiring read the clock %d times, want 1 (the wait bucket's closing entry)", reads-idle)
	}
	ses.s.ccStop.Store(true)
	if progress, exit := c.step(); !progress || exit {
		t.Fatalf("CC step with a release in its ring after stop: progress=%v exit=%v, want handled and alive", progress, exit)
	}
	if _, exit := c.step(); !exit {
		t.Fatal("CC thread did not retire after draining its last release")
	}
	if got := ses.s.perCC[0].Releases; got != 1 {
		t.Fatalf("CC thread handled %d releases, want 1", got)
	}
}

// A sender never waits for room. With rings of four slots and one logical
// CC thread that is simply not stepped, an exec thread keeps stepping:
// what the ring refuses stays in its outbox, in order, and it cannot
// retire while any of it is there — not even once the intake has stopped.
func TestFullRingLeavesOutboxForNextStep(t *testing.T) {
	const txns = 12
	db, tbl := newDB(64)
	ses := newTestSession(Config{DB: db, CCThreads: 1, ExecThreads: 1, QueueCap: 4, Inflight: txns, BatchSize: 64})
	x := newExecThread(ses, 0, ses.set.Thread(0))
	c := newCCThread(ses.s, 0)
	commits := 0
	for i := 0; i < txns; i++ {
		key := uint64(i)
		ses.Submit(&txn.Txn{
			Ops:   []txn.Op{{Table: tbl, Key: key, Mode: txn.Write}},
			Logic: func(ctx txn.Ctx) error { _, err := ctx.Write(tbl, key); return err },
		}, func(bool) { commits++ })
	}
	x.step()
	if got := len(x.out[0].buf); got != txns-4 {
		t.Fatalf("outbox holds %d acquires after one step against a 4-slot ring, want %d", got, txns-4)
	}
	if progress, _ := x.step(); progress {
		t.Fatal("exec step reported progress with a full ring and nothing new")
	}
	for steps := 0; commits < txns; steps++ {
		if steps > 100 {
			t.Fatalf("%d of %d commits after 100 sweeps", commits, txns)
		}
		x.step()
		c.step()
	}
	// Every transaction is acknowledged, so Close stops the intake at
	// once, while releases the ring refused still sit in the outbox. The
	// first step refills the ring the CC thread just emptied, the second
	// finds it full; neither may retire.
	ses.Intake.Close()
	for i := 0; i < 2; i++ {
		if _, exit := x.step(); exit || len(x.out[0].buf) == 0 {
			t.Fatalf("step %d after Close: exit=%v with %d releases in the outbox, want some left and no retirement",
				i, exit, len(x.out[0].buf))
		}
	}
	for steps := 0; ; steps++ {
		if steps > 100 {
			t.Fatal("exec thread did not retire once its outbox could drain")
		}
		c.step()
		if _, exit := x.step(); exit {
			break
		}
	}
	if ops := ses.s.ops; ops.acquires != txns || ops.releases != txns { // the retired thread's books
		t.Fatalf("%d acquires and %d releases sent, want %d of each", ops.acquires, ops.releases, txns)
	}
}

// The time buckets keep their meaning on every layout: exec + lock + wait
// of a busy closed loop is the execution threads' wall clock.
func TestBreakdownSumsToThreadTime(t *testing.T) {
	underProcs(t, func(t *testing.T, procs int) {
		const records, threads = 1 << 10, 2
		db, tbl := newDB(records)
		eng := New(Config{DB: db, CCThreads: 2, ExecThreads: threads})
		src := &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 8, HotRecords: 16, HotOps: 2}
		if err := src.Validate(); err != nil {
			t.Fatal(err)
		}
		res := engine.RunClosedLoop(eng, src, 300*time.Millisecond)
		tot := res.Totals
		if tot.Committed == 0 || tot.Exec <= 0 || tot.Lock <= 0 || tot.Wait <= 0 {
			t.Fatalf("commits=%d exec=%v lock=%v wait=%v, want all positive", tot.Committed, tot.Exec, tot.Lock, tot.Wait)
		}
		sum, want := tot.Exec+tot.Lock+tot.Wait, threads*res.Duration
		if diff := (sum - want).Abs(); diff > want/50 {
			t.Fatalf("exec+lock+wait = %v, want within 2%% of %d threads × %v = %v", sum, threads, res.Duration, want)
		}
	})
}
