package orthrus

import (
	"net"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
)

// BenchmarkTCPSerialCommit is the lightly loaded commit over the wire:
// one transaction outstanding through the two-node loopback split, the
// client blocked on its completion, so every hop of every iteration
// starts from threads that have run out of work — the latency no
// throughput benchmark isolates. The transaction locks one record on
// each CC thread (acquire out, forward across, grant back).
//
// "busy" commits back to back: the engine threads are still inside
// IdleWaiter's yield phase and the socket readers inside their idle
// budget when the next one arrives. "idle" lets the session go quiet for
// 3 ms first — every thread is in its timer sleep and both readers sit
// in the netpoller — and reports the commit alone as ns/commit.
func BenchmarkTCPSerialCommit(b *testing.B) {
	const records, threads = 64, 2
	for _, think := range []time.Duration{0, 3 * time.Millisecond} {
		name := "busy"
		if think > 0 {
			name = "idle"
		}
		b.Run(name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			ccDB, _ := newDB(records)
			execDB, tbl := newDB(records)
			ccCfg := Config{DB: ccDB, CCThreads: threads, ExecThreads: threads,
				Transport: TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}}
			execCfg := Config{DB: execDB, CCThreads: threads, ExecThreads: threads,
				Transport: TransportConfig{Kind: "tcp", Role: "exec", Peer: ln.Addr().String()}}
			ccDone := make(chan struct{})
			go func() {
				defer close(ccDone)
				New(ccCfg).Start().Close() // blocks on the goodbye barrier until the exec node drains
			}()
			ses := New(execCfg).Start()

			tx := &txn.Txn{Ops: []txn.Op{
				{Table: tbl, Key: 0, Mode: txn.Write},
				{Table: tbl, Key: 1, Mode: txn.Write},
			}}
			tx.Logic = func(ctx txn.Ctx) error {
				for _, op := range tx.Ops {
					rec, err := ctx.Write(op.Table, op.Key)
					if err != nil {
						return err
					}
					storage.PutU64(rec, 0, storage.GetU64(rec, 0)+1)
				}
				return nil
			}
			done := make(chan struct{}, 1)
			ack := func(bool) { done <- struct{}{} }
			commit := func() time.Duration {
				time.Sleep(think)
				t0 := time.Now()
				ses.Submit(tx, ack)
				<-done
				return time.Since(t0)
			}
			for i := 0; i < 64; i++ {
				commit() // warm pools, socket buffers and the wrapper registry
			}
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += commit()
			}
			b.StopTimer()
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/commit")
			ses.Close()
			<-ccDone
		})
	}
}
