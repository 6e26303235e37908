package harness

import (
	"fmt"
	"net"

	"repro/internal/metrics"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/workload"
)

// NodeCommand, when set (cmd/orthrus-bench wires it to re-exec itself),
// launches the cc half of the two-process split as a separate OS
// process: it returns the child's accept address once the child is
// listening, and a wait function that blocks until the child exits
// cleanly. When nil, the distributed experiment falls back to hosting
// the cc node on a goroutine in this process — the full TCP/codec path
// over loopback still runs, only the process boundary is missing.
var NodeCommand func(c Config, ccThreads, execThreads int) (addr string, wait func() error)

// distributed compares the message plane's two backends on the transfer
// workload: the in-process SPSC rings versus the batched TCP transport
// with all CC threads on one node and all execution threads on the
// other. Same thread split, same table, same workload — the delta is
// the cost of crossing the wire, and the frame counters show how much
// of it batching recovers. Every row property-checks conservation (the
// transfer sum is invariant mod 2^64).
func distributed(c Config) {
	header(c, "distributed: two-node CC/exec split over loopback TCP vs the in-process plane")
	const threads = 10
	cc, ex := ccSplit(threads)
	mode := "two-process"
	if NodeCommand == nil {
		mode = "single-process loopback"
	}
	fmt.Fprintf(c.Out, "%d cc + %d exec threads, transfer workload, %s\n", cc, ex, mode)
	fmt.Fprintf(c.Out, "%-10s %12s %10s %10s %12s %12s %10s %10s %10s %8s %10s\n",
		"plane", "tps", "p99_us", "frames", "msgs/frame", "wire_bytes", "reads", "empty", "writes", "short", "conserved")

	row := func(name string, res metrics.Result, m orthrus.MessageStats, conserved bool) {
		n := m.Net
		frames := n.FramesSent + n.FramesReceived
		bytes := n.BytesSent + n.BytesReceived
		fmt.Fprintf(c.Out, "%-10s %12.0f %10d %10d %12.1f %12d %10d %10d %10d %8d %10v\n",
			name, res.Throughput(), res.Totals.Latency.Percentile(99).Microseconds(),
			frames, n.MessagesPerFrame(), bytes, n.Reads, n.EmptyReads, n.Writes, n.ShortWrites, conserved)
		c.JSONRow(map[string]interface{}{
			"plane":          name,
			"cc_threads":     cc,
			"exec_threads":   ex,
			"tps":            res.Throughput(),
			"p99_us":         res.Totals.Latency.Percentile(99).Microseconds(),
			"committed":      res.Totals.Committed,
			"frames_sent":    n.FramesSent,
			"frames_recv":    n.FramesReceived,
			"msgs_sent":      n.MessagesSent,
			"msgs_recv":      n.MessagesReceived,
			"bytes_sent":     n.BytesSent,
			"bytes_recv":     n.BytesReceived,
			"msgs_per_frame": n.MessagesPerFrame(),
			"reads":          n.Reads,
			"empty_reads":    n.EmptyReads,
			"writes":         n.Writes,
			"short_writes":   n.ShortWrites,
			"conserved":      conserved,
		})
	}

	sum := func(db *storage.DB, tbl int) uint64 {
		var s uint64
		for k := uint64(0); k < c.Records; k++ {
			s += storage.GetU64(db.Table(tbl).Get(k), 0)
		}
		return s
	}

	// In-process plane: the same rings, every consumer in this process.
	{
		db, tbl := newYCSBDB(c)
		eng := orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: ex})
		src := &workload.Transfer{Table: tbl, NumRecords: c.Records}
		res := point(c, eng, src)
		row("inproc", res, eng.Messages(), sum(db, tbl) == 0)
	}

	// Networked plane: the cc node in a child process (or, without
	// NodeCommand, on a goroutine) and the execution threads here.
	{
		var addr string
		var wait func() error
		if NodeCommand != nil {
			addr, wait = NodeCommand(c, cc, ex)
		} else {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(fmt.Sprintf("harness: distributed: listen: %v", err))
			}
			addr = ln.Addr().String()
			ccDB, _ := newYCSBDB(c)
			done := make(chan struct{})
			go func() {
				defer close(done)
				ccEng := orthrus.New(orthrus.Config{DB: ccDB, CCThreads: cc, ExecThreads: ex,
					Transport: orthrus.TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}})
				ccEng.Start().Close() // Close gates on the exec node's goodbye
			}()
			wait = func() error { <-done; return nil }
		}
		db, tbl := newYCSBDB(c)
		eng := orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: ex,
			Transport: orthrus.TransportConfig{Kind: "tcp", Role: "exec", Peer: addr}})
		src := &workload.Transfer{Table: tbl, NumRecords: c.Records}
		res := point(c, eng, src)
		if err := wait(); err != nil {
			panic(fmt.Sprintf("harness: distributed: cc node: %v", err))
		}
		row("tcp", res, eng.Messages(), sum(db, tbl) == 0)
	}
}
