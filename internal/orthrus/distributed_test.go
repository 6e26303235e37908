package orthrus

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	wire "repro/internal/transport"
	"repro/internal/workload"
)

// runTCPPair runs one closed-loop session across the two-node tcp split
// inside a single test process: the cc node accepts on a loopback
// listener and sits in Close (gated on the exec node's goodbye) while
// the exec node drives src for the given duration. Both engines'
// Messages() are valid on return.
func runTCPPair(t *testing.T, ccCfg, execCfg Config, src workload.Source, d time.Duration) metrics.Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ccCfg.Transport = TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}
	execCfg.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: ln.Addr().String()}
	ccEng := New(ccCfg)
	execEng := New(execCfg)
	ccDone := make(chan struct{})
	go func() {
		defer close(ccDone)
		ses := ccEng.Start()
		ses.Close() // blocks on the goodbye barrier until the exec node drains
	}()
	res := execEng.Run(src, d)
	select {
	case <-ccDone:
	case <-time.After(30 * time.Second):
		t.Fatal("cc node did not shut down after the exec node finished")
	}
	return res
}

// The fundamental distributed correctness test: the transfer workload
// over the wire must conserve the total balance and terminate cleanly.
func TestDistributedTransferConservation(t *testing.T) {
	const records = 8
	ccDB, _ := newDB(records)
	execDB, tbl := newDB(records)
	for k := uint64(0); k < records; k++ {
		storage.PutU64(execDB.Table(tbl).Get(k), 0, 1000)
	}
	ccCfg := Config{DB: ccDB, CCThreads: 2, ExecThreads: 3}
	execCfg := Config{DB: execDB, CCThreads: 2, ExecThreads: 3}
	src := &workload.Transfer{Table: tbl, NumRecords: records}
	res := runTCPPair(t, ccCfg, execCfg, src, 150*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Aborted != 0 {
		t.Fatalf("aborts = %d (exact access sets must never abort)", res.Totals.Aborted)
	}
	if got := sumTable(execDB, tbl, records); got != records*1000 {
		t.Fatalf("sum = %d, want %d", got, records*1000)
	}
}

// The naive no-forwarding protocol re-acquires from the exec node at
// every hop; all of that extra traffic crosses the wire and must still
// be exactly correct.
func TestDistributedDisableForwarding(t *testing.T) {
	const records = 64
	ccDB, _ := newDB(records)
	execDB, tbl := newDB(records)
	mk := func(db *storage.DB) Config {
		return Config{DB: db, CCThreads: 3, ExecThreads: 2, DisableForwarding: true}
	}
	src := &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 8, HotRecords: 8, HotOps: 2}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	res := runTCPPair(t, mk(ccDB), mk(execDB), src, 150*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	want := res.Totals.Committed * 8
	if got := sumTable(execDB, tbl, records); got != want {
		t.Fatalf("increments = %d, want %d", got, want)
	}
}

// TestPerCCStatsConservationTCP extends TestPerCCStatsConservation
// across the process split: every message the exec node sends must be
// received and handled on the cc node (and vice versa for grants), the
// frame counters must be symmetric, and the wire batching must be
// consistent with the exec threads' batch sizes.
func TestPerCCStatsConservationTCP(t *testing.T) {
	underProcs(t, testPerCCStatsConservationTCP)
}

func testPerCCStatsConservationTCP(t *testing.T, procs int) {
	const records = 1 << 12
	ccDB, _ := newDB(records)
	execDB, tbl := newDB(records)
	mk := func(db *storage.DB) Config { return Config{DB: db, CCThreads: 3, ExecThreads: 3} }
	src := &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 8, HotRecords: 64, HotOps: 2}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ccCfg, execCfg := mk(ccDB), mk(execDB)
	ccCfg.Transport = TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}
	execCfg.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: ln.Addr().String()}
	ccEng := New(ccCfg)
	execEng := New(execCfg)
	ccDone := make(chan struct{})
	go func() {
		defer close(ccDone)
		ccEng.Start().Close()
	}()
	if res := execEng.Run(src, 150*time.Millisecond); res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	<-ccDone

	ccM, exM := ccEng.Messages(), execEng.Messages()

	// Each node folds only the role it hosts.
	if want := min(3, procs); ccM.Workers != want || exM.Workers != want {
		t.Fatalf("Workers = cc %d / exec %d, want %d on both nodes", ccM.Workers, exM.Workers, want)
	}

	// Send-side counters live on the exec node (acquires, releases);
	// handled-side counters live on the cc node (per-CC breakdown,
	// grants). Conservation across the wire must be exact.
	var acq, fwd, rel, grants uint64
	for _, cs := range ccM.PerCC {
		acq += cs.Acquires
		fwd += cs.Forwards
		rel += cs.Releases
		grants += cs.Grants
	}
	if acq != exM.Acquires {
		t.Fatalf("cc handled %d acquires, exec sent %d", acq, exM.Acquires)
	}
	if rel != exM.Releases {
		t.Fatalf("cc handled %d releases, exec sent %d", rel, exM.Releases)
	}
	if fwd != ccM.Forwards {
		t.Fatalf("per-CC forwards %d != node total %d (forwards are cc-node-local)", fwd, ccM.Forwards)
	}
	if grants != ccM.Grants {
		t.Fatalf("per-CC grants %d != node total %d", grants, ccM.Grants)
	}

	// Wire conservation: sent == received per peer pair, both planes.
	cn, en := ccM.Net, exM.Net
	if !cn.Remote() || !en.Remote() {
		t.Fatalf("sessions did not report wire traffic: cc %+v exec %+v", cn, en)
	}
	if en.MessagesSent != cn.MessagesReceived || cn.MessagesSent != en.MessagesReceived {
		t.Fatalf("message conservation violated: exec sent %d / cc recv %d; cc sent %d / exec recv %d",
			en.MessagesSent, cn.MessagesReceived, cn.MessagesSent, en.MessagesReceived)
	}
	if en.FramesSent != cn.FramesReceived || cn.FramesSent != en.FramesReceived {
		t.Fatalf("frame conservation violated: exec sent %d / cc recv %d; cc sent %d / exec recv %d",
			en.FramesSent, cn.FramesReceived, cn.FramesSent, en.FramesReceived)
	}
	if en.BytesSent != cn.BytesReceived || cn.BytesSent != en.BytesReceived {
		t.Fatalf("byte conservation violated: exec sent %d / cc recv %d; cc sent %d / exec recv %d",
			en.BytesSent, cn.BytesReceived, cn.BytesSent, en.BytesReceived)
	}

	// The wire totals decompose exactly onto the message-plane totals:
	// the exec node sends acquires and releases, the cc node sends
	// grants; forwards never cross the wire.
	if en.MessagesSent != exM.Acquires+exM.Releases {
		t.Fatalf("exec wire messages %d != acquires %d + releases %d",
			en.MessagesSent, exM.Acquires, exM.Releases)
	}
	if cn.MessagesSent != ccM.Grants {
		t.Fatalf("cc wire messages %d != grants %d", cn.MessagesSent, ccM.Grants)
	}

	// Every non-empty flush produced at least one frame, and the only
	// empty frame either side sends is its goodbye.
	if en.FramesSent < 2 || cn.FramesSent < 2 {
		t.Fatalf("too few frames: exec %d, cc %d", en.FramesSent, cn.FramesSent)
	}
	if en.MessagesSent < en.FramesSent-1 || cn.MessagesSent < cn.FramesSent-1 {
		t.Fatalf("empty data frames on the wire: exec %d msgs / %d frames, cc %d msgs / %d frames",
			en.MessagesSent, en.FramesSent, cn.MessagesSent, cn.FramesSent)
	}

	// Batching coherence: the exec node's wire batching factor cannot
	// exceed what its outbox coalescing could have produced — each frame
	// carries at most one flushOutbox pass, whose size is bounded by the
	// whole in-flight window's worth of messages per pass.
	if len(exM.ExecBatch) != 3 {
		t.Fatalf("ExecBatch has %d entries, want 3", len(exM.ExecBatch))
	}
	for i, b := range exM.ExecBatch {
		if b < 1 {
			t.Fatalf("exec thread %d reports batch size %d", i, b)
		}
	}
	if mpf := en.MessagesPerFrame(); mpf <= 0 {
		t.Fatalf("MessagesPerFrame = %v", mpf)
	}
}

// TestTransportConfigValidationPanics covers the new transport knobs the
// same way TestConfigValidationPanics covers the engine's.
func TestTransportConfigValidationPanics(t *testing.T) {
	db, _ := newDB(8)
	base := func() Config { return Config{DB: db, CCThreads: 2, ExecThreads: 2} }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown-kind", func(c *Config) { c.Transport.Kind = "udp" }},
		{"role-without-tcp", func(c *Config) { c.Transport.Role = "cc" }},
		{"peer-without-tcp", func(c *Config) { c.Transport.Peer = "127.0.0.1:9" }},
		{"tcp-unknown-role", func(c *Config) { c.Transport = TransportConfig{Kind: "tcp", Role: "both"} }},
		{"tcp-cc-no-listen", func(c *Config) { c.Transport = TransportConfig{Kind: "tcp", Role: "cc"} }},
		{"tcp-cc-with-peer", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "cc", Listen: "127.0.0.1:0", Peer: "127.0.0.1:9"}
		}},
		{"tcp-cc-bad-listen", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "cc", Listen: "no-port"}
		}},
		{"tcp-exec-no-peer", func(c *Config) { c.Transport = TransportConfig{Kind: "tcp", Role: "exec"} }},
		{"tcp-exec-bad-peer", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "no-port"}
		}},
		{"tcp-exec-with-listen", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9", Listen: "127.0.0.1:0"}
		}},
		{"tcp-negative-maxframe", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9"}
			c.Transport.Net.MaxFrame = -1
		}},
		{"tcp-tiny-maxframe", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9"}
			c.Transport.Net.MaxFrame = 16
		}},
		{"tcp-negative-writerdepth", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9"}
			c.Transport.Net.WriterDepth = -1
		}},
		{"tcp-negative-dial-timeout", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9"}
			c.Transport.Net.DialTimeout = -time.Second
		}},
		{"tcp-negative-accept-timeout", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9"}
			c.Transport.Net.AcceptTimeout = -time.Second
		}},
		{"tcp-with-controller", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9"}
			c.Controller = ControllerConfig{Enable: true}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted malformed transport configuration")
				}
			}()
			cfg := base()
			tc.mutate(&cfg)
			New(cfg)
		})
	}
}

// A topology mismatch between the two processes must be refused at
// handshake time, on both nodes, before any message flows.
func TestDistributedHandshakeRejectsMismatch(t *testing.T) {
	ccDB, _ := newDB(8)
	execDB, _ := newDB(8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ccCfg := Config{DB: ccDB, CCThreads: 2, ExecThreads: 3,
		Transport: TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}}
	execCfg := Config{DB: execDB, CCThreads: 3, ExecThreads: 3, // CCThreads differs
		Transport: TransportConfig{Kind: "tcp", Role: "exec", Peer: ln.Addr().String()}}
	panics := make(chan interface{}, 2)
	for _, cfg := range []Config{ccCfg, execCfg} {
		cfg := cfg
		go func() {
			defer func() { panics <- recover() }()
			New(cfg).Start()
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case p := <-panics:
			if p == nil {
				t.Fatal("node accepted a mismatched topology")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("handshake neither succeeded nor refused")
		}
	}
}

// A well-formed frame whose acquire carries out-of-range or inconsistent
// plan values must be refused by the reader, before any CC thread can
// index through it.
func TestDispatchRejectsMalformedAcquire(t *testing.T) {
	hops := func(ccs ...uint16) []wire.Hop {
		hs := make([]wire.Hop, len(ccs))
		for i, c := range ccs {
			hs[i].CC = c
		}
		return hs
	}
	cases := []struct {
		name string
		to   uint16
		msg  wire.Msg
		ok   bool
	}{
		{"valid", 0, wire.Msg{Owner: 1, Hops: hops(0, 2)}, true},
		{"valid-later-hop", 2, wire.Msg{Owner: 1, HopIdx: 1, Hops: hops(0, 2)}, true},
		{"cc-out-of-range", 0, wire.Msg{Owner: 1, Hops: hops(0, 3)}, false},
		{"hops-descending", 2, wire.Msg{Owner: 1, Hops: hops(2, 0)}, false},
		{"hops-repeated", 1, wire.Msg{Owner: 1, Hops: hops(1, 1)}, false},
		{"hopidx-past-end", 0, wire.Msg{Owner: 1, HopIdx: 2, Hops: hops(0, 2)}, false},
		{"no-hops", 0, wire.Msg{Owner: 1}, false},
		{"owner-out-of-range", 0, wire.Msg{Owner: 2, Hops: hops(0)}, false},
		{"owner-not-sender", 0, wire.Msg{Owner: 0, Hops: hops(0)}, false},
		{"hop-not-addressed-cc", 1, wire.Msg{Owner: 1, Hops: hops(0, 2)}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db, _ := newDB(8)
			e := New(Config{DB: db, CCThreads: 3, ExecThreads: 2})
			s := e.newRunState() // in-process rings stand in for the cc node's wire-fed ones
			tr := &tcpTransport{cfg: e.cfg, role: wire.RoleCC, s: s, reg: map[uint64]*wrapper{}}
			tc.msg.Kind, tc.msg.TxnID = wire.KindAcquire, 7
			f := &wire.Frame{Plane: wire.PlaneExecCC, From: 1, To: tc.to, Msgs: []wire.Msg{tc.msg}}
			defer func() {
				p := recover()
				if tc.ok {
					if p != nil {
						t.Fatalf("dispatch refused a valid acquire: %v", p)
					}
					var got [2]message
					if n := s.execToCC[1][tc.to].DequeueBatch(got[:]); n != 1 || got[0].kind != msgAcquire || got[0].w != tr.reg[7] {
						t.Fatalf("valid acquire not republished: ring holds %d (%+v)", n, got[0])
					}
					return
				}
				msg, _ := p.(string)
				if !strings.HasPrefix(msg, "orthrus: tcp transport: malformed acquire") {
					t.Fatalf("dispatch did not reject the acquire at the reader: recovered %v", p)
				}
				if len(tr.reg) != 0 {
					t.Fatal("rejected acquire left a registered wrapper")
				}
			}()
			tr.dispatch(f)
		})
	}
}
