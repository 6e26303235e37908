package orthrus

import (
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/storage"
	wire "repro/internal/transport"
	"repro/internal/txn"
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
	// Each node folds the role it hosts and its net stepper.
	procs := runtime.GOMAXPROCS(0)
	if got, want := ccEng.Messages().Workers, min(ccCfg.CCThreads+1, procs); got != want {
		t.Fatalf("cc node ran %d workers, want min(%d cc + net, %d procs) = %d", got, ccCfg.CCThreads, procs, want)
	}
	if got, want := execEng.Messages().Workers, min(execCfg.ExecThreads+1, procs); got != want {
		t.Fatalf("exec node ran %d workers, want min(%d exec + net, %d procs) = %d", got, execCfg.ExecThreads, procs, want)
	}
	return res
}

// The fundamental distributed correctness test: the transfer workload
// over the wire must conserve the total balance and terminate cleanly.
func TestDistributedTransferConservation(t *testing.T) {
	underProcs(t, func(t *testing.T, _ int) { testDistributedTransferConservation(t) })
}

func testDistributedTransferConservation(t *testing.T) {
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
	underProcs(t, func(t *testing.T, _ int) { testDistributedDisableForwarding(t) })
}

func testDistributedDisableForwarding(t *testing.T) {
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

	// Each node folds only the role it hosts, and its net stepper.
	if want := min(3+1, procs); ccM.Workers != want || exM.Workers != want {
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
	if cn.FramesSent == 0 || en.FramesSent == 0 {
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
	// carries at most one outbox flush, whose size is bounded by the
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
		{"tcp-negative-dial-timeout", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9"}
			c.Transport.Net.DialTimeout = -time.Second
		}},
		{"tcp-negative-accept-timeout", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9"}
			c.Transport.Net.AcceptTimeout = -time.Second
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
// plan values must be refused by the net stepper, before any CC thread
// can index through it or lock a record it does not own.
func TestDispatchRejectsMalformedAcquire(t *testing.T) {
	// Each hop carries one op on the key that routes to its CC thread
	// (key c under HashPartitioner(3)).
	hops := func(ccs ...uint16) []wire.Hop {
		hs := make([]wire.Hop, len(ccs))
		for i, c := range ccs {
			hs[i] = wire.Hop{CC: c, Ops: []txn.Op{{Key: uint64(c), Mode: txn.Write}}}
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
		{"op-routed-elsewhere", 0, wire.Msg{Owner: 1, Hops: []wire.Hop{{CC: 0, Ops: []txn.Op{{Key: 1}}}}}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db, _ := newDB(8)
			e := New(Config{DB: db, CCThreads: 3, ExecThreads: 2})
			// A cc node's net stepper with no socket behind it: dispatch
			// touches only the outboxes to its rings and the registry.
			s := &runState{cfg: e.cfg}
			s.wraps.New = func() interface{} { return &wrapper{} }
			tr := newNetStepper(s, wire.RoleCC, nil)
			tr.in = make(outboxes, 2*3)
			tc.msg.Kind, tc.msg.TxnID = wire.KindAcquire, 7
			f := &wire.Frame{Plane: wire.PlaneExecCC, From: 1, To: tc.to, Msgs: []wire.Msg{tc.msg}}
			defer func() {
				p := recover()
				if tc.ok {
					if p != nil {
						t.Fatalf("dispatch refused a valid acquire: %v", p)
					}
					if got := tr.in[1*3+int(tc.to)].buf; len(got) != 1 || got[0].kind != msgAcquire || got[0].w != tr.reg[7] {
						t.Fatalf("valid acquire not queued for its ring: %+v", got)
					}
					return
				}
				msg, _ := p.(string)
				if !strings.HasPrefix(msg, "orthrus: tcp transport: malformed acquire") {
					t.Fatalf("dispatch did not reject the acquire: recovered %v", p)
				}
				if len(tr.reg) != 0 {
					t.Fatal("rejected acquire left a registered wrapper")
				}
			}()
			tr.dispatch(f)
		})
	}
}

// stallListener accepts loopback connections stripped of their descriptor
// — the Peer over one polls through deadlines, the path of a platform
// without raw socket I/O — whose Write can be told to take nothing, as a
// socket with a full buffer does.
type stallListener struct {
	net.Listener
	conn *stallConn
}

type stallConn struct {
	net.Conn
	stall bool
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	l.conn = &stallConn{Conn: c}
	return l.conn, err
}

func (c *stallConn) Write(b []byte) (int, error) {
	if c.stall {
		return 0, os.ErrDeadlineExceeded
	}
	return c.Conn.Write(b)
}

// One transaction crosses the wire and comes back as plain method calls
// on one goroutine — exec step, net step, (loopback), net step, CC step
// and back — then both nodes retire in Close's order. No goroutine is
// started along the way: the socket is a stepper like the threads. The
// exec node polls its descriptor; the cc node's connection has none and
// polls through deadlines. A net stepper whose socket takes nothing
// reports no progress and does not retire with bytes buffered.
func TestNetStepsByHand(t *testing.T) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &stallListener{Listener: tcp}
	defer ln.Close()
	ccDB, _ := newDB(8)
	execDB, tbl := newDB(8)
	ccStarted := make(chan *session)
	go func() { // the handshake needs both ends at once
		ccStarted <- newTestSession(Config{DB: ccDB, CCThreads: 1, ExecThreads: 1,
			Transport: TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}})
	}()
	ex := newTestSession(Config{DB: execDB, CCThreads: 1, ExecThreads: 1,
		Transport: TransportConfig{Kind: "tcp", Role: "exec", Peer: tcp.Addr().String()}})
	cc := <-ccStarted
	x, c := newExecThread(ex, 0, ex.set.Thread(0)), newCCThread(cc.s, 0)
	xn, cn := ex.s.tr.wire(), cc.s.tr.wire()
	goroutines := runtime.NumGoroutine()

	// must steps th once and insists on progress; arrive steps a net
	// stepper until the bytes its peer just wrote have crossed loopback.
	must := func(what string, th stepper) {
		t.Helper()
		if progress, exit := th.step(); !progress || exit {
			t.Fatalf("%s: progress=%v exit=%v, want progress and no exit", what, progress, exit)
		}
	}
	arrive := func(what string, th stepper) {
		t.Helper()
		for i := 0; i < 1e6; i++ {
			if progress, _ := th.step(); progress {
				return
			}
		}
		t.Fatalf("%s: nothing arrived in a million steps", what)
	}
	for _, th := range []stepper{x, xn, cn, c} {
		if progress, exit := th.step(); progress || exit {
			t.Fatalf("idle step of %T: progress=%v exit=%v", th, progress, exit)
		}
	}

	acked := false
	ex.inflight.Add(1)
	ex.submit <- engine.Submission{
		Txn: &txn.Txn{
			Ops: []txn.Op{{Table: tbl, Key: 3, Mode: txn.Write}},
			Logic: func(ctx txn.Ctx) error {
				rec, err := ctx.Write(tbl, 3)
				if err != nil {
					return err
				}
				storage.PutU64(rec, 0, 42)
				return nil
			},
		},
		Done: func(ok bool) { acked = ok },
	}
	must("exec step with a queued submission", x) // plan, frame the acquire
	must("exec node's net step with a frame queued", xn)
	arrive("the acquire, at the cc node", cn)
	must("CC step with an acquire in its ring", c) // lock, frame the grant
	must("cc node's net step with a grant queued", cn)
	arrive("the grant, at the exec node", xn)
	if acked {
		t.Fatal("acknowledged before the grant was handled")
	}
	must("exec step with a grant in its ring", x) // execute, commit, frame the release
	if !acked || storage.GetU64(execDB.Table(tbl).Get(3), 0) != 42 {
		t.Fatalf("after the grant: acked=%v record=%d, want true and 42", acked, storage.GetU64(execDB.Table(tbl).Get(3), 0))
	}
	must("exec node's net step with a release queued", xn)
	arrive("the release, at the cc node", cn)
	must("CC step with a release in its ring", c)

	// Retirement, in Close's order on both nodes.
	ex.execStop.Store(true)
	if _, exit := x.step(); !exit {
		t.Fatal("exec thread did not retire")
	}
	ex.s.tr.execDone()
	if _, exit := xn.step(); exit { // says goodbye
		t.Fatal("exec node's net stepper retired before hearing the cc node's goodbye")
	}
	arrive("the exec node's goodbye, at the cc node", cn)
	select {
	case <-cn.heard: // what ccGate waits for
	default:
		t.Fatal("cc node decoded the goodbye with empty outboxes and did not say so")
	}
	cc.s.ccStop.Store(true)
	if _, exit := c.step(); !exit {
		t.Fatal("CC thread did not retire")
	}
	cn.closing.Store(true) // what shutdown does once the CC threads are gone
	ln.conn.stall = true
	for i := 0; i < 3; i++ {
		if progress, exit := cn.step(); exit || (i > 0 && progress) || cn.peer.Buffered() == 0 {
			t.Fatalf("stalled step %d: progress=%v exit=%v buffered=%d, want its goodbye kept and no retirement",
				i, progress, exit, cn.peer.Buffered())
		}
	}
	ln.conn.stall = false
	if _, exit := cn.step(); !exit || cn.peer.Buffered() != 0 {
		t.Fatalf("cc node's net stepper did not retire once its goodbye was written (buffered=%d)", cn.peer.Buffered())
	}
	for i := 0; ; i++ {
		if _, exit := xn.step(); exit {
			break
		}
		if i == 1e6 {
			t.Fatal("exec node's net stepper did not retire after the cc node's goodbye")
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines { // fewer: the handshake helper above may exit late
		t.Fatalf("%d goroutines after stepping by hand, %d before", n, goroutines)
	}
	xs, cs := xn.peer.Stats(), cn.peer.Stats()
	if xs.FramesSent != 3 || xs.MessagesSent != 2 || cs.FramesSent != 2 || cs.MessagesSent != 1 ||
		xs.FramesSent != cs.FramesReceived || cs.FramesSent != xs.FramesReceived || xs.BytesSent != cs.BytesReceived || cs.BytesSent != xs.BytesReceived {
		t.Fatalf("wire counters: exec %+v, cc %+v; want acquire+release+goodbye out, grant+goodbye back, all received", xs, cs)
	}
	if cs.ShortWrites != 3 || xs.ShortWrites != 0 || xs.EmptyReads == 0 {
		t.Fatalf("socket counters: exec %+v, cc %+v; want the 3 stalled writes and the exec node's empty polls counted", xs, cs)
	}
	xn.peer.Close()
	cn.peer.Close()
}

// A live tcp session is its workers and nothing else: no goroutine per
// socket direction on either node. Goroutines are attributed by their
// stacks — new since before Start, and created by Start, which launches
// each worker into (*session).work — not counted by a
// runtime.NumGoroutine delta, which also sees goroutines of earlier tests
// retiring.
func TestTCPSessionStartsOnlyWorkers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ccDB, _ := newDB(8)
	execDB, _ := newDB(8)
	ccEng := New(Config{DB: ccDB, CCThreads: 2, ExecThreads: 2,
		Transport: TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}})
	execEng := New(Config{DB: execDB, CCThreads: 2, ExecThreads: 2,
		Transport: TransportConfig{Kind: "tcp", Role: "exec", Peer: ln.Addr().String()}})
	before := goroutines()
	started, closeCC, ccDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() { // the cc node's owner: one goroutine, alive until its Close returns
		defer close(ccDone)
		ses := ccEng.Start()
		close(started)
		<-closeCC
		ses.Close()
	}()
	ses := execEng.Start()
	<-started
	live := goroutines()
	close(closeCC)
	ses.Close()
	<-ccDone
	workers := 0
	for id, g := range live {
		switch {
		case before[id] != "":
		case strings.Contains(g, "created by repro/internal/orthrus.(*Engine).Start"):
			workers++
		case strings.Contains(g, "created by repro/internal/orthrus.TestTCPSessionStartsOnlyWorkers"):
		case strings.Contains(g, "repro/"):
			t.Fatalf("a live tcp session runs a goroutine besides its workers:\n%s", g)
		}
		for _, loop := range []string{"readLoop", "writeLoop"} {
			if strings.Contains(g, loop) {
				t.Fatalf("a live tcp session runs a %s:\n%s", loop, g)
			}
		}
	}
	if want := ccEng.Messages().Workers + execEng.Messages().Workers; workers != want {
		t.Fatalf("two live tcp nodes run %d workers, want %d", workers, want)
	}
}

// goroutines returns every live goroutine's stack, keyed by goroutine id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		out[id] = g
	}
	return out
}
