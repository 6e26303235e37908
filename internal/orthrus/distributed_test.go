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
	res := engine.RunClosedLoop(execEng, src, d)
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
	if res := engine.RunClosedLoop(execEng, src, 150*time.Millisecond); res.Totals.Committed == 0 {
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

// TestTransportConfigValidationPanics covers the transport knobs the
// same way TestConfigValidationPanics covers the engine's. The wire's own
// knobs are internal/transport's (TestConfigValidatePanics there).
func TestTransportConfigValidationPanics(t *testing.T) {
	db, _ := newDB(8)
	ln := &stallListener{} // Validate only asks whether one is set
	base := func() Config { return Config{DB: db, CCThreads: 2, ExecThreads: 2} }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown-kind", func(c *Config) { c.Transport.Kind = "udp" }},
		{"role-without-tcp", func(c *Config) { c.Transport.Role = "cc" }},
		{"peer-without-tcp", func(c *Config) { c.Transport.Peer = "127.0.0.1:9" }},
		{"tcp-unknown-role", func(c *Config) { c.Transport = TransportConfig{Kind: "tcp", Role: "both"} }},
		{"listener-without-tcp", func(c *Config) { c.Transport.Listener = ln }},
		{"inproc-spelling", func(c *Config) { c.Transport.Kind = "inproc" }},
		{"tcp-cc-no-listen", func(c *Config) { c.Transport = TransportConfig{Kind: "tcp", Role: "cc"} }},
		{"tcp-cc-with-peer", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "cc", Listener: ln, Peer: "127.0.0.1:9"}
		}},
		{"tcp-exec-no-peer", func(c *Config) { c.Transport = TransportConfig{Kind: "tcp", Role: "exec"} }},
		{"tcp-exec-bad-peer", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "no-port"}
		}},
		{"tcp-exec-with-listen", func(c *Config) {
			c.Transport = TransportConfig{Kind: "tcp", Role: "exec", Peer: "127.0.0.1:9", Listener: ln}
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
// plan values, or names a wire id whose wrapper is still live, must be
// refused by the net stepper, before any CC thread can index through it,
// lock a record it does not own, or re-link request slots already queued.
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
		dup  bool // dispatch the acquire once before the one under test
	}{
		{"valid", 0, wire.Msg{Owner: 1, Hops: hops(0, 2)}, true, false},
		{"duplicate-live-id", 0, wire.Msg{Owner: 1, Hops: hops(0, 2)}, false, true},
		{"cc-out-of-range", 0, wire.Msg{Owner: 1, Hops: hops(0, 3)}, false, false},
		{"hops-descending", 2, wire.Msg{Owner: 1, Hops: hops(2, 0)}, false, false},
		{"hops-repeated", 1, wire.Msg{Owner: 1, Hops: hops(1, 1)}, false, false},
		{"no-hops", 0, wire.Msg{Owner: 1}, false, false},
		{"owner-out-of-range", 0, wire.Msg{Owner: 2, Hops: hops(0)}, false, false},
		{"owner-not-sender", 0, wire.Msg{Owner: 0, Hops: hops(0)}, false, false},
		{"hop-not-addressed-cc", 1, wire.Msg{Owner: 1, Hops: hops(0, 2)}, false, false},
		{"op-routed-elsewhere", 0, wire.Msg{Owner: 1, Hops: []wire.Hop{{CC: 0, Ops: []txn.Op{{Key: 1}}}}}, false, false},
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
			if tc.dup {
				tr.dispatch(f)
			}
			registered := len(tr.reg)
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
				if len(tr.reg) != registered {
					t.Fatal("rejected acquire left a registered wrapper")
				}
			}()
			tr.dispatch(f)
		})
	}
}

// A grant or a release names its transaction by wire id alone, and the
// net stepper resolves the id to a wrapper in dispatch. On the exec node a
// grant must name an acquire this node framed and has not yet seen
// granted, and come to its owner from its chain's last CC thread; on the
// cc node a release must name a wrapper still awaiting releases. Anything
// else panics there, before an exec or CC thread could act on it, and
// leaves the registry as it was.
func TestDispatchResolvesWireIDs(t *testing.T) {
	cases := []struct {
		name     string
		role     uint8
		id       uint64
		from, to uint16
		twice    bool // dispatch the frame once before the one under test
		ok       bool
	}{
		{"grant", wire.RoleExec, 7, 2, 1, false, true},
		{"grant-unknown-id", wire.RoleExec, 8, 2, 1, false, false},
		{"grant-to-another-exec-thread", wire.RoleExec, 7, 2, 0, false, false},
		{"grant-from-a-middle-hop", wire.RoleExec, 7, 0, 1, false, false},
		{"grant-twice", wire.RoleExec, 7, 2, 1, true, false},
		{"release", wire.RoleCC, 7, 1, 0, false, true},
		{"release-unknown-id", wire.RoleCC, 8, 1, 0, false, false},
		{"release-past-the-last", wire.RoleCC, 7, 1, 0, true, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db, _ := newDB(8)
			e := New(Config{DB: db, CCThreads: 3, ExecThreads: 2})
			// A net stepper with no socket behind it: dispatch touches
			// only the outboxes to its rings and the registry.
			s := &runState{cfg: e.cfg}
			s.wraps.New = func() interface{} { return &wrapper{} }
			n := newNetStepper(s, tc.role, nil)
			n.in = make(outboxes, 2*3)
			f := &wire.Frame{From: tc.from, To: tc.to, Msgs: []wire.Msg{{TxnID: tc.id}}}
			var w *wrapper
			kind, want, tos := msgRelease, "orthrus: tcp transport: release for unknown wire transaction", 3
			if tc.role == wire.RoleExec {
				// Exec thread 1's acquire, framed, for a chain of CC 0 then CC 2.
				w = &wrapper{owner: 1, id: 7, hops: []int{0, 2}}
				n.reg[7] = w
				f.Plane, f.Msgs[0].Kind = wire.PlaneCCExec, wire.KindGrant
				kind, want, tos = msgAcquire, "orthrus: tcp transport: grant for wire transaction", 2
			} else {
				// Exec thread 1's acquire of one record on CC 0.
				n.dispatch(&wire.Frame{Plane: wire.PlaneExecCC, From: 1, Msgs: []wire.Msg{{Kind: wire.KindAcquire, TxnID: 7, Owner: 1,
					Hops: []wire.Hop{{Ops: []txn.Op{{Key: 0, Mode: txn.Write}}}}}}})
				w = n.reg[7]
				f.Plane, f.Msgs[0].Kind = wire.PlaneExecCC, wire.KindRelease
			}
			if tc.twice {
				n.dispatch(f)
			}
			in := &n.in[int(tc.from)*tos+int(tc.to)]
			registered, queued := len(n.reg), len(in.buf)
			defer func() {
				p := recover()
				if tc.ok {
					if p != nil {
						t.Fatalf("dispatch refused a valid %s: %v", tc.name, p)
					}
					if got := in.buf[queued:]; len(got) != 1 || got[0].kind != kind || got[0].w != w {
						t.Fatalf("%s not queued for its ring as its wrapper: %+v", tc.name, got)
					}
					if n.reg[7] != nil {
						t.Fatalf("the id outlived its %s", tc.name)
					}
					return
				}
				msg, _ := p.(string)
				if !strings.HasPrefix(msg, want) {
					t.Fatalf("dispatch did not reject the %s: recovered %v", tc.name, p)
				}
				if len(n.reg) != registered || len(in.buf) != queued {
					t.Fatal("a rejected message changed the registry or reached a ring")
				}
			}()
			n.dispatch(f)
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

// handPair is a tcp pair of one CC thread and one execution thread,
// built without workers so a test can step both nodes by hand on one
// goroutine. The exec node polls its descriptor; the cc node's
// connection (ln.conn) has none and polls through deadlines.
type handPair struct {
	ln     *stallListener
	ex, cc *session
	x      *execThread
	c      *ccThread
	xn, cn *netStepper
	execDB *storage.DB
	tbl    int
}

func newHandPair(t *testing.T) *handPair {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &handPair{ln: &stallListener{Listener: tcp}}
	t.Cleanup(func() { p.ln.Close() })
	ccDB, _ := newDB(8)
	p.execDB, p.tbl = newDB(8)
	ccStarted := make(chan *session)
	go func() { // the handshake needs both ends at once
		ccStarted <- newTestSession(Config{DB: ccDB, CCThreads: 1, ExecThreads: 1,
			Transport: TransportConfig{Kind: "tcp", Role: "cc", Listener: p.ln}})
	}()
	p.ex = newTestSession(Config{DB: p.execDB, CCThreads: 1, ExecThreads: 1,
		Transport: TransportConfig{Kind: "tcp", Role: "exec", Peer: tcp.Addr().String()}})
	p.cc = <-ccStarted
	p.x, p.c = newExecThread(p.ex, 0, p.ex.set.Thread(0)), newCCThread(p.cc.s, 0)
	p.xn, p.cn = p.ex.s.net, p.cc.s.net
	return p
}

// must steps th once and insists on progress.
func must(t *testing.T, what string, th stepper) {
	t.Helper()
	if progress, exit := th.step(); !progress || exit {
		t.Fatalf("%s: progress=%v exit=%v, want progress and no exit", what, progress, exit)
	}
}

// arrive steps a net stepper until the bytes its peer just wrote have
// crossed loopback.
func arrive(t *testing.T, what string, th stepper) {
	t.Helper()
	for i := 0; i < 1e6; i++ {
		if progress, _ := th.step(); progress {
			return
		}
	}
	t.Fatalf("%s: nothing arrived in a million steps", what)
}

// retire steps th until it retires.
func retire(t *testing.T, what string, th stepper) {
	t.Helper()
	for i := 0; i < 1e6; i++ {
		if _, exit := th.step(); exit {
			return
		}
	}
	t.Fatalf("%s did not retire in a million steps", what)
}

// One transaction crosses the wire and comes back as plain method calls
// on one goroutine — exec step, net step, (loopback), net step, CC step
// and back — then both nodes retire in Close's order. No goroutine is
// started along the way: the socket is a stepper like the threads. A net
// stepper whose socket takes nothing reports no progress and does not
// retire with bytes buffered.
func TestNetStepsByHand(t *testing.T) {
	p := newHandPair(t)
	ln, ex, cc, x, c, xn, cn, execDB, tbl := p.ln, p.ex, p.cc, p.x, p.c, p.xn, p.cn, p.execDB, p.tbl
	goroutines := runtime.NumGoroutine()
	for _, th := range []stepper{x, xn, cn, c} {
		if progress, exit := th.step(); progress || exit {
			t.Fatalf("idle step of %T: progress=%v exit=%v", th, progress, exit)
		}
	}

	acked := false
	ex.Submit(&txn.Txn{
		Ops: []txn.Op{{Table: tbl, Key: 3, Mode: txn.Write}},
		Logic: func(ctx txn.Ctx) error {
			rec, err := ctx.Write(tbl, 3)
			if err != nil {
				return err
			}
			storage.PutU64(rec, 0, 42)
			return nil
		},
	}, func(ok bool) { acked = ok })
	// Thread steps publish into rings; each node's net step drains the
	// rings whose consumer is on the peer and frames what it took.
	must(t, "exec step with a queued submission", x) // plan, publish the acquire
	must(t, "exec node's net step with an acquire published", xn)
	arrive(t, "the acquire, at the cc node", cn)
	must(t, "CC step with an acquire in its ring", c) // lock, publish the grant
	must(t, "cc node's net step with a grant published", cn)
	arrive(t, "the grant, at the exec node", xn)
	if acked {
		t.Fatal("acknowledged before the grant was handled")
	}
	must(t, "exec step with a grant in its ring", x) // execute, commit, publish the release
	if !acked || storage.GetU64(execDB.Table(tbl).Get(3), 0) != 42 {
		t.Fatalf("after the grant: acked=%v record=%d, want true and 42", acked, storage.GetU64(execDB.Table(tbl).Get(3), 0))
	}
	must(t, "exec node's net step with a release published", xn)
	arrive(t, "the release, at the cc node", cn)
	must(t, "CC step with a release in its ring", c)

	// Retirement, in Close's order on both nodes.
	ex.Intake.Close()
	if _, exit := x.step(); !exit {
		t.Fatal("exec thread did not retire")
	}
	ex.s.net.execRetired()
	if _, exit := xn.step(); exit { // says goodbye
		t.Fatal("exec node's net stepper retired before hearing the cc node's goodbye")
	}
	arrive(t, "the exec node's goodbye, at the cc node", cn)
	select {
	case <-cn.heard: // what execRetired waits for on the cc node
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
	retire(t, "exec node's net stepper, after the cc node's goodbye,", xn)
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

// An OLLP estimate miss crosses the wire: the first attempt's grant
// comes back, its logic touches a key it did not declare, and the retry
// goes out under a fresh wire id, framed behind the first attempt's
// release on the same ring. Each node's stepper resolves both ids, and
// both registries are empty once the pair has retired in Close's order.
func TestTCPReplanByHand(t *testing.T) {
	p := newHandPair(t)
	x, c, xn, cn, tbl := p.x, p.c, p.xn, p.cn, p.tbl
	onlyID := func(what string, reg map[uint64]*wrapper) uint64 {
		t.Helper()
		if len(reg) != 1 {
			t.Fatalf("%s: %d registered wire ids, want 1", what, len(reg))
		}
		for id := range reg {
			return id
		}
		return 0
	}
	acked := false
	p.ex.Submit(&txn.Txn{
		Ops: []txn.Op{{Table: tbl, Key: 3, Mode: txn.Write}},
		Logic: func(ctx txn.Ctx) error {
			for _, k := range []uint64{3, 5} {
				rec, err := ctx.Write(tbl, k)
				if err != nil {
					return err // key 5 misses on the first plan
				}
				storage.PutU64(rec, 0, 40+k)
			}
			return nil
		},
		Replan: func(t *txn.Txn) { t.Ops = append(t.Ops, txn.Op{Table: tbl, Key: 5, Mode: txn.Write}) },
	}, func(ok bool) { acked = ok })

	must(t, "exec step with a queued submission", x)
	must(t, "exec node's net step with the first acquire published", xn)
	first := onlyID("after framing the first acquire", xn.reg)
	arrive(t, "the first acquire, at the cc node", cn)
	must(t, "CC step granting the first attempt", c)
	must(t, "cc node's net step with the first grant published", cn)
	arrive(t, "the first grant, at the exec node", xn)
	if len(xn.reg) != 0 {
		t.Fatal("the exec node's stepper kept a granted id")
	}
	must(t, "exec step that misses, releases and re-plans", x)
	if got := p.ex.set.Thread(0).Misses; got != 1 || acked {
		t.Fatalf("after the miss: Misses=%d acked=%v, want 1 and false", got, acked)
	}
	must(t, "exec node's net step with the release and the retry published", xn)
	if retry := onlyID("after framing the retry", xn.reg); retry == first {
		t.Fatalf("the retry reused wire id %d", first)
	}
	arrive(t, "the release and the retry, at the cc node", cn)
	must(t, "CC step releasing the first attempt and granting the retry", c)
	must(t, "cc node's net step with the retry's grant published", cn)
	arrive(t, "the retry's grant, at the exec node", xn)
	must(t, "exec step committing the retry", x)
	must(t, "exec node's net step with the retry's release published", xn)
	arrive(t, "the retry's release, at the cc node", cn)
	must(t, "CC step releasing the retry", c)

	// Close's order, by hand, on both nodes.
	p.ex.Intake.Close()
	retire(t, "exec thread", x)
	xn.execRetired()
	xn.step() // says goodbye
	arrive(t, "the exec node's goodbye, at the cc node", cn)
	p.cc.s.ccStop.Store(true)
	retire(t, "CC thread", c)
	cn.closing.Store(true)
	retire(t, "cc node's net stepper", cn)
	retire(t, "exec node's net stepper", xn)
	xn.peer.Close()
	cn.peer.Close()

	if len(xn.reg) != 0 || len(cn.reg) != 0 {
		t.Fatalf("registries after Close: exec node %d ids, cc node %d, want none", len(xn.reg), len(cn.reg))
	}
	if got := p.ex.set.Thread(0).Misses; got != 1 || !acked {
		t.Fatalf("Misses=%d acked=%v, want 1 and true", got, acked)
	}
	for _, k := range []uint64{3, 5} {
		if got := storage.GetU64(p.execDB.Table(tbl).Get(k), 0); got != 40+k {
			t.Fatalf("record %d = %d, want the retry's %d", k, got, 40+k)
		}
	}
}

// The net stepper frames an outbound ring one drained batch at a time, in
// ring order, opening a new frame wherever the next message would pass
// MaxFrame, and stops draining once the bytes the socket has not taken
// pass MaxFrame: the rest stays in the ring for a later step. Acquires of
// varied plan sizes — one alone larger than the cap — and releases cross
// a net.Pipe and are decoded on the far end. Each message is settled once
// however often it is filled: every acquire is registered for its grant,
// and every release drops exactly the one reference its remote hop held,
// including a release that opens a frame in the middle of a batch.
func TestGatherSplitsAtMaxFrameInOrder(t *testing.T) {
	const maxFrame, batch, ccs, execs = 256, 4, 3, 2
	const from, to = 1, 2 // the ring under test: exec 1 → CC 2
	// Each acquire's op count, in ring order; 0 is a release.
	opsPerAcquire := []int{6, 2, 9, 1, 25, 3, 6, 6, 14, 2, 0, 0, 4, 12, 7, 5, 0, 8, 3, 6}
	db, _ := newDB(8)
	e := New(Config{DB: db, CCThreads: ccs, ExecThreads: execs, BatchSize: batch})
	s := &runState{cfg: e.cfg}
	s.execToCC = rings(execs, ccs, e.cfg.QueueCap, false)
	near, far := net.Pipe()
	n := newNetStepper(s, wire.RoleExec, wire.NewPeer(near, wire.Config{MaxFrame: maxFrame}))

	type frame struct {
		plane    uint8
		from, to uint16
		size     int      // encoded payload bytes
		ids      []uint64 // in frame order
		ops      []int    // each acquire's op count
	}
	got := make(chan []frame)
	go func() { // the far end: decode until the near end closes
		p := wire.NewPeer(far, wire.Config{})
		var fs []frame
		var f wire.Frame
		for p.Recv(&f) == nil {
			fr := frame{plane: f.Plane, from: f.From, to: f.To, size: len(wire.AppendFrame(nil, &f))}
			for _, m := range f.Msgs {
				fr.ids = append(fr.ids, m.TxnID)
				if m.Kind == wire.KindRelease {
					fr.ops = append(fr.ops, 0)
				} else {
					fr.ops = append(fr.ops, len(m.Hops[0].Ops))
				}
			}
			fs = append(fs, fr)
		}
		got <- fs
	}()

	ring := s.execToCC[from][to]
	ws := make([]*wrapper, len(opsPerAcquire))
	for i, k := range opsPerAcquire {
		w := &wrapper{owner: from, id: uint64(i)}
		ws[i] = w
		m := message{kind: msgRelease, w: w}
		if k == 0 {
			w.refs.Store(2) // the remote hop's and the exec thread's
		} else {
			m.kind = msgAcquire
			ops := w.addHop(to, k)
			for j := range ops {
				ops[j] = txn.Op{Key: uint64(j), Mode: txn.Write}
			}
		}
		if !ring.TryEnqueue(m) {
			t.Fatal("ring full")
		}
	}
	total := len(opsPerAcquire)

	// The first batch alone encodes past the cap, so one step frames it
	// and leaves the rest in the ring.
	if progress, exit := n.step(); !progress || exit {
		t.Fatalf("first step: progress=%v exit=%v", progress, exit)
	}
	if left, sent := ring.Len(), n.peer.Stats().MessagesSent; left != total-batch || sent != batch {
		t.Fatalf("first step left %d in the ring and framed %d, want %d and %d", left, sent, total-batch, batch)
	}
	for i := 0; ring.Len() > 0 || n.peer.Buffered() > 0; i++ {
		if i == 1e5 {
			t.Fatalf("ring (%d) and buffer (%d bytes) not drained", ring.Len(), n.peer.Buffered())
		}
		n.step()
	}
	n.peer.Close()
	frames := <-got
	far.Close()

	var ids []uint64
	split, oversized, releaseOpens := false, false, false
	for i, f := range frames {
		if f.plane != wire.PlaneExecCC || f.from != from || f.to != to {
			t.Fatalf("frame %d addressed (%d, %d→%d), want the ring's (%d, %d→%d)", i, f.plane, f.from, f.to, wire.PlaneExecCC, from, to)
		}
		if f.size > maxFrame && len(f.ids) > 1 {
			t.Fatalf("frame %d is %d bytes with %d messages, over the %d-byte cap", i, f.size, len(f.ids), maxFrame)
		}
		for j, id := range f.ids {
			if want := opsPerAcquire[id]; f.ops[j] != want {
				t.Fatalf("acquire %d arrived with %d ops, want %d", id, f.ops[j], want)
			}
		}
		split = split || len(f.ids) < batch
		oversized = oversized || f.size > maxFrame
		releaseOpens = releaseOpens || (f.ids[0]%batch != 0 && opsPerAcquire[f.ids[0]] == 0)
		ids = append(ids, f.ids...)
	}
	for i, w := range ws {
		acquire := opsPerAcquire[i] > 0
		if acquire && n.reg[w.id] != w || !acquire && w.refs.Load() != 1 {
			t.Fatalf("message %d settled wrongly: registered %v, %d references left", i, n.reg[w.id] == w, w.refs.Load())
		}
	}
	if !releaseOpens {
		t.Fatal("no release opened a frame in the middle of a batch")
	}
	for i := range ids {
		if ids[i] != uint64(i) {
			t.Fatalf("arrival order %v, want ring order 0..%d", ids, total-1)
		}
	}
	if len(ids) != total || !split || !oversized {
		t.Fatalf("%d of %d messages arrived in %d frames (split=%v, oversized=%v)", len(ids), total, len(frames), split, oversized)
	}
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
