package main

import (
	"math"
	"math/rand"
	"net"
	"time"

	"repro/internal/engine"
	"repro/internal/spsc"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Layer replay: the benchmark cannot put spans inside the engine, so it
// times each layer's exported functions single-threaded on the workload's
// own transactions — the first replayTxns the seed generates. Every
// figure is the median over replayRounds passes of the mean cost per item
// in a pass, so a descheduled pass does not set the number.
const (
	replayTxns   = 4096
	replayRounds = 9
)

// replayInput is the workload's transaction stream with its ops copied
// out (generated transactions are pooled and recycled).
type replayInput struct {
	ops      [][]txn.Op
	readOnly []bool
	nOps     int
}

func generateReplayInput(src workload.Source, seed int64) *replayInput {
	in := &replayInput{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < replayTxns; i++ {
		t := src.Next(0, rng)
		in.ops = append(in.ops, append([]txn.Op(nil), t.Ops...))
		in.readOnly = append(in.readOnly, t.ReadOnly)
		in.nOps += len(t.Ops)
		if t.Free != nil {
			t.Free()
		}
	}
	return in
}

// rounds runs pass replayRounds times and returns the median of
// elapsed-ns / items.
func rounds(items int, pass func()) float64 {
	per := make([]float64, replayRounds)
	for i := range per {
		t0 := time.Now()
		pass()
		per[i] = float64(time.Since(t0)) / float64(items)
	}
	return median(per)
}

var sink uint64 // defeats dead-code elimination of replayed reads

// replayPlan times what an execution thread does to a transaction before
// its first message: materialize ranges, sort the access set, derive the
// partition set. It also returns the mean partition-set size.
func replayPlan(in *replayInput, db *storage.DB) (planNs, partsPerTxn float64) {
	pf := txn.HashPartitioner(ccThreads * 4) // orthrus.DefaultPartitionFactor logical partitions per CC thread
	t := &txn.Txn{}
	parts := 0
	planNs = rounds(len(in.ops), func() {
		parts = 0
		for _, ops := range in.ops {
			t.Ops = append(t.Ops[:0], ops...)
			t.Partitions = t.Partitions[:0]
			engine.MaterializeRanges(db, t)
			t.SortOps()
			parts += len(t.PartitionSet(pf))
		}
	})
	return planNs, float64(parts) / float64(len(in.ops))
}

// replayHop times one message crossing an SPSC ring — publish k, consume
// k — and returns ns per message.
func replayHop(k int) float64 {
	type message struct { // the shape of orthrus's ring message
		kind uint8
		w    *int
		id   uint64
	}
	k = max(k, 1)
	ring := spsc.New[message](256)
	out := make([]message, k)
	in := make([]message, k)
	const batches = 8192
	return rounds(batches*k, func() {
		for i := 0; i < batches; i++ {
			out[0].id = uint64(i)
			for sent := 0; sent < k; {
				sent += ring.TryEnqueueBatch(out[sent:])
			}
			for got := 0; got < k; {
				got += ring.DequeueBatch(in[got:])
			}
			sink += in[0].id
		}
	})
}

// replayGet times the storage lookup plus first-word read of every op.
func replayGet(in *replayInput, db *storage.DB) float64 {
	return rounds(in.nOps, func() {
		for _, ops := range in.ops {
			for _, op := range ops {
				sink += storage.GetU64(db.Table(op.Table).Get(op.Key), 0)
			}
		}
	})
}

// replayVersions times installing a committed version for every write and
// resolving every read through its version chain (versioned tables only).
func replayVersions(in *replayInput, db *storage.DB, tbl int) (installNs, readNs float64) {
	vt, ok := db.Table(tbl).(*storage.VersionedTable)
	if !ok {
		return 0, 0
	}
	writes, reads := 0, 0
	for i, ops := range in.ops {
		if in.readOnly[i] {
			reads += len(ops)
		} else {
			writes += len(ops)
		}
	}
	lsn := uint64(math.MaxUint32) // above anything the run assigned
	if writes > 0 {
		installNs = rounds(writes, func() {
			for i, ops := range in.ops {
				if in.readOnly[i] {
					continue
				}
				lsn++
				for _, op := range ops {
					vt.InstallVersion(op.Key, lsn)
				}
			}
		})
	}
	if reads > 0 {
		readNs = rounds(reads, func() {
			for i, ops := range in.ops {
				if !in.readOnly[i] {
					continue
				}
				for _, op := range ops {
					rec, _ := vt.ReadVersion(op.Key, math.MaxUint64)
					sink += storage.GetU64(rec, 0)
				}
			}
		})
	}
	return installNs, readNs
}

// replayAppend times the pre-commit WAL work of every transaction — Note
// per write, then CommitWith — on a fresh in-memory log under the run's
// flush policy. The flusher runs beside it, as it does in the engine.
func replayAppend(in *replayInput, db *storage.DB) float64 {
	log := wal.NewLog(wal.NewMemSegments(0), wal.Group(0, 0))
	app := log.NewAppender(nil)
	ack := func() {}
	ns := rounds(len(in.ops), func() {
		for _, ops := range in.ops {
			for _, op := range ops {
				if op.Mode == txn.Write {
					app.Note(op.Table, op.Key, db.Table(op.Table).Get(op.Key))
				}
			}
			app.CommitWith(nil, ack)
		}
	})
	if err := log.Close(); err != nil {
		panic(err)
	}
	return ns
}

// fillFrame builds the exec→cc frame a batch of k of the workload's
// transactions produces: one acquire per transaction carrying its hop
// plan (ops split across the CC threads).
func fillFrame(f *transport.Frame, in *replayInput, first, k int) {
	f.Reset()
	f.Plane = transport.PlaneExecCC
	for j := 0; j < k; j++ {
		ops := in.ops[(first+j)%len(in.ops)]
		m := f.AddMsg()
		m.Kind = transport.KindAcquire
		m.TxnID = uint64(first + j)
		for c := 0; c < ccThreads; c++ {
			h := m.AddHop(uint16(c))
			for _, op := range ops {
				if int(op.Key%ccThreads) == c {
					h.Ops = append(h.Ops, op)
				}
			}
		}
	}
}

// replayCodec times encoding and decoding frames of k messages and
// returns ns per message.
func replayCodec(in *replayInput, k int) float64 {
	k = max(k, 1)
	var f, g transport.Frame
	var buf []byte
	const frames = 2048
	return rounds(frames*k, func() {
		for i := 0; i < frames; i++ {
			fillFrame(&f, in, i*k, k)
			buf = transport.AppendFrame(buf[:0], &f)
			if err := transport.DecodeFrame(&g, buf); err != nil {
				panic(err)
			}
		}
	})
}

// replayRTT times a one-message frame ping-pong between two Peers over a
// loopback socket and returns the median round trip in µs.
func replayRTT(in *replayInput) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	ca, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	cb := <-accepted
	if cb == nil {
		ca.Close()
		return 0, net.ErrClosed
	}
	pa, pb := transport.NewPeer(ca, transport.Config{}), transport.NewPeer(cb, transport.Config{})
	echoed := make(chan struct{})
	go func() { // the far end: answer every frame with a one-grant frame
		defer close(echoed)
		var f transport.Frame
		for {
			if err := pb.Recv(&f); err != nil || f.Plane == transport.PlaneControl {
				return
			}
			r := pb.Get()
			r.Plane, r.From, r.To = transport.PlaneCCExec, f.To, f.From
			m := r.AddMsg()
			m.Kind, m.TxnID = transport.KindGrant, f.Msgs[0].TxnID
			pb.Send(r)
		}
	}()
	const pings = 2000
	rtts := make([]float64, 0, pings)
	var reply transport.Frame
	for i := 0; i < pings+64; i++ {
		f := pa.Get()
		fillFrame(f, in, i, 1)
		t0 := time.Now()
		pa.Send(f)
		if err := pa.Recv(&reply); err != nil {
			return 0, err
		}
		if i >= 64 { // the first round trips warm pools and socket buffers
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	pa.SendGoodbye()
	pa.CloseSend()
	<-echoed
	pb.CloseSend()
	pa.Close()
	pb.Close()
	return median(rtts), nil
}
