package orthrus

import (
	"fmt"
	"net"
	"runtime"

	"repro/internal/spsc"
	wire "repro/internal/transport"
)

// TransportConfig selects the message-plane backend. The zero value is
// the in-process plane (SPSC ring matrices), behaviourally identical to
// the engine before the Transport extraction.
//
// Kind "tcp" splits the engine across two OS processes: a "cc" node
// hosting every CC thread and an "exec" node hosting every execution
// thread, connected by one TCP connection carrying batched frames (see
// internal/transport and README "Distributed message plane"). Both
// processes construct the same Config apart from this struct; the
// handshake verifies they agree on thread counts, logical partitions,
// the routing table and its epoch before any message flows.
type TransportConfig struct {
	// Kind is "" or "inproc" for the in-process plane, "tcp" for the
	// networked plane.
	Kind string
	// Role is this process's half of the tcp split: "cc" or "exec".
	Role string
	// Listen is the cc node's host:port accept address. Ignored when
	// Listener is set.
	Listen string
	// Listener, when non-nil, is a pre-bound listener the cc node
	// accepts on (so callers can bind :0 and learn the port first).
	Listener net.Listener
	// Peer is the exec node's target: the cc node's address.
	Peer string
	// Net are the wire-level knobs (frame cap, writer depth, dial and
	// accept timeouts).
	Net wire.Config
}

// remote reports whether the plane crosses a process boundary.
func (c TransportConfig) remote() bool { return c.Kind == "tcp" }

// Validate panics on malformed transport configuration: unknown kinds
// or roles, a role without its required endpoint, endpoints that do not
// parse as host:port, or tcp-role fields set on the in-process plane.
func (c TransportConfig) Validate() {
	switch c.Kind {
	case "", "inproc":
		if c.Role != "" || c.Listen != "" || c.Listener != nil || c.Peer != "" {
			panic("orthrus: Transport.Role/Listen/Listener/Peer require Transport.Kind \"tcp\"")
		}
	case "tcp":
		switch c.Role {
		case "cc":
			if c.Listen == "" && c.Listener == nil {
				panic("orthrus: Transport.Role \"cc\" requires Listen or Listener")
			}
			if c.Listen != "" {
				if _, _, err := net.SplitHostPort(c.Listen); err != nil {
					panic(fmt.Sprintf("orthrus: Transport.Listen %q is not host:port: %v", c.Listen, err))
				}
			}
			if c.Peer != "" {
				panic("orthrus: Transport.Peer is the exec role's knob; the cc role listens")
			}
		case "exec":
			if c.Peer == "" {
				panic("orthrus: Transport.Role \"exec\" requires Peer (the cc node's address)")
			}
			if _, _, err := net.SplitHostPort(c.Peer); err != nil {
				panic(fmt.Sprintf("orthrus: Transport.Peer %q is not host:port: %v", c.Peer, err))
			}
			if c.Listen != "" || c.Listener != nil {
				panic("orthrus: Transport.Listen/Listener are the cc role's knobs; the exec role dials")
			}
		default:
			panic(fmt.Sprintf("orthrus: Transport.Role %q unknown (want \"cc\" or \"exec\" with Kind \"tcp\")", c.Role))
		}
	default:
		panic(fmt.Sprintf("orthrus: Transport.Kind %q unknown (want \"inproc\" or \"tcp\")", c.Kind))
	}
	c.Net.Validate()
}

// NetStats counts the session's wire traffic (zero on the in-process
// plane). Frames and bytes include the two control frames of the
// shutdown barrier; Messages counts data messages only, so MessagesSent
// here equals MessagesReceived on the peer node.
type NetStats struct {
	FramesSent, FramesReceived     uint64
	MessagesSent, MessagesReceived uint64
	BytesSent, BytesReceived       uint64
}

// Remote reports whether any wire traffic occurred (i.e. the session
// ran on the tcp transport).
func (n NetStats) Remote() bool { return n.FramesSent+n.FramesReceived > 0 }

// MessagesPerFrame reports the achieved wire batching factor on the
// send side.
func (n NetStats) MessagesPerFrame() float64 {
	if n.FramesSent == 0 {
		return 0
	}
	return float64(n.MessagesSent) / float64(n.FramesSent)
}

// Transport is the pluggable message-plane backend behind the three
// queue planes (exec→CC acquires/releases, CC→CC forwards, CC→exec
// grants). install populates runState's queue matrices; the lifecycle
// hooks are called from session.Close in this order, mirroring the
// drain protocol:
//
//	execDone()  after the execution threads exit (exec side flushed)
//	ccGate()    before CC threads are told to stop (inbound flushed)
//	shutdown()  after the CC threads exit (plane torn down)
//
// The in-process backend implements all three as no-ops; the tcp
// backend maps them onto the goodbye barrier exchange.
type Transport interface {
	name() string
	// hostsCC / hostsExec report which thread roles run in this
	// process; the other role's threads live on the peer node.
	hostsCC() bool
	hostsExec() bool
	install(s *runState)
	execDone()
	ccGate()
	shutdown() NetStats
}

// newTransport selects the backend for a validated Config.
func newTransport(cfg Config) Transport {
	tc := cfg.Transport
	if !tc.remote() {
		return inprocTransport{}
	}
	role := wire.RoleExec
	if tc.Role == "cc" {
		role = wire.RoleCC
	}
	return &tcpTransport{cfg: cfg, role: role}
}

// --- in-process backend ---------------------------------------------------

// inprocTransport is the historical message plane: full SPSC ring
// matrices for all three planes, every thread in one process.
type inprocTransport struct{}

func (inprocTransport) name() string    { return "inproc" }
func (inprocTransport) hostsCC() bool   { return true }
func (inprocTransport) hostsExec() bool { return true }

func (inprocTransport) install(s *runState) {
	cfg := s.cfg
	grantCap := cfg.QueueCap
	if grantCap < cfg.Inflight {
		// Grant rings hold the whole in-flight window, so a grant never
		// waits a step in its CC thread's outbox for room.
		grantCap = cfg.Inflight
	}
	s.execToCC = make([][]spsc.Queue[message], cfg.ExecThreads)
	for i := range s.execToCC {
		s.execToCC[i] = make([]spsc.Queue[message], cfg.CCThreads)
		for j := range s.execToCC[i] {
			s.execToCC[i][j] = spsc.New[message](cfg.QueueCap)
		}
	}
	s.ccToCC = make([][]spsc.Queue[message], cfg.CCThreads)
	s.ccToExec = make([][]spsc.Queue[message], cfg.CCThreads)
	for i := range s.ccToCC {
		s.ccToCC[i] = make([]spsc.Queue[message], cfg.CCThreads)
		for j := range s.ccToCC[i] {
			if i != j {
				s.ccToCC[i][j] = spsc.New[message](cfg.QueueCap)
			}
		}
		s.ccToExec[i] = make([]spsc.Queue[message], cfg.ExecThreads)
		for j := range s.ccToExec[i] {
			s.ccToExec[i][j] = spsc.New[message](grantCap)
		}
	}
}

func (inprocTransport) execDone()          {}
func (inprocTransport) ccGate()            {}
func (inprocTransport) shutdown() NetStats { return NetStats{} }

// --- tcp backend ----------------------------------------------------------

// tcpTransport is one node's half of the networked message plane. The
// two-node split keeps every CC thread on one process and every exec
// thread on the other, so exactly two planes cross the wire — exec→CC
// (acquires, releases) and CC→exec (grants) — while CC→CC forwards stay
// node-local: the ascending-CC-id forwarding chains that carry the
// paper's deadlock-freedom argument never leave the CC node, and the
// wire adds no new cycle to the acyclic forwarding graph (see README).
//
// Outbound, each remote queue slot is a netQueue: the sending thread
// coalesces one flushOutbox pass into one frame and hands it to the
// peer's writer goroutine. Inbound, a single reader goroutine decodes
// frames and republishes them into ordinary local rings, preserving the
// single-producer discipline (the reader is the sole producer for every
// wire-fed ring) and per-queue FIFO order end to end.
type tcpTransport struct {
	cfg  Config
	role uint8
	s    *runState

	peer  *wire.Peer
	conn  net.Conn
	ln    net.Listener
	ownLn bool

	// queues lists every outbound netQueue so shutdown can drain
	// frames left pending by a full writer channel (safe: called only
	// after the owning threads have exited).
	queues []*netQueue

	// Reader-goroutine private state (no locks: single reader). reg
	// maps live wire transaction ids to this CC node's materialized
	// wrappers; each entry dies with its last release (wireReleases).
	reg     map[uint64]*wrapper
	scratch []message
	ops     opCounter

	readerDone chan struct{}
}

func (t *tcpTransport) name() string    { return "tcp/" + t.cfg.Transport.Role }
func (t *tcpTransport) hostsCC() bool   { return t.role == wire.RoleCC }
func (t *tcpTransport) hostsExec() bool { return t.role == wire.RoleExec }

func (t *tcpTransport) install(s *runState) {
	t.s = s
	cfg := s.cfg
	tc := cfg.Transport
	nc := tc.Net.WithDefaults()

	// Establish the connection: the cc node accepts, the exec node
	// dials with retry (the two processes may start in either order).
	var conn net.Conn
	var err error
	if t.role == wire.RoleCC {
		ln := tc.Listener
		if ln == nil {
			ln, err = net.Listen("tcp", tc.Listen)
			if err != nil {
				panic(fmt.Sprintf("orthrus: tcp transport: listen %s: %v", tc.Listen, err))
			}
			t.ownLn = true
		}
		t.ln = ln
		conn, err = wire.Accept(ln, nc.AcceptTimeout)
		if err != nil {
			panic(fmt.Sprintf("orthrus: tcp transport: accept: %v", err))
		}
	} else {
		conn, err = wire.Dial(tc.Peer, nc.DialTimeout)
		if err != nil {
			panic(fmt.Sprintf("orthrus: tcp transport: %v", err))
		}
	}
	t.conn = conn

	// Handshake: both processes derived their topology and routing
	// table independently from their own Config; refuse to run unless
	// they are byte-identical — a mismatched routing table would send
	// acquires to CC threads that do not own the partition, which
	// tallyAndInsert would only catch one transaction at a time.
	rt := s.rt.Load()
	local := wire.Hello{
		Role:              t.role,
		CCThreads:         uint16(cfg.CCThreads),
		ExecThreads:       uint16(cfg.ExecThreads),
		LogicalPartitions: uint16(cfg.LogicalPartitions),
		Epoch:             rt.epoch,
		Routing:           make([]uint16, len(rt.owner)),
	}
	for i, o := range rt.owner {
		local.Routing[i] = uint16(o)
	}
	peerHello, err := wire.Exchange(conn, &local, nc.DialTimeout)
	if err != nil {
		conn.Close()
		panic(fmt.Sprintf("orthrus: tcp transport: handshake: %v", err))
	}
	wantRole := wire.RoleCC
	if t.role == wire.RoleCC {
		wantRole = wire.RoleExec
	}
	if peerHello.Role != wantRole {
		conn.Close()
		panic(fmt.Sprintf("orthrus: tcp transport: both nodes claim the %s role", tc.Role))
	}
	if peerHello.CCThreads != local.CCThreads || peerHello.ExecThreads != local.ExecThreads ||
		peerHello.LogicalPartitions != local.LogicalPartitions {
		conn.Close()
		panic(fmt.Sprintf("orthrus: tcp transport: topology mismatch: local %dcc/%dex/%dp, peer %dcc/%dex/%dp",
			local.CCThreads, local.ExecThreads, local.LogicalPartitions,
			peerHello.CCThreads, peerHello.ExecThreads, peerHello.LogicalPartitions))
	}
	if peerHello.Epoch != local.Epoch || len(peerHello.Routing) != len(local.Routing) {
		conn.Close()
		panic("orthrus: tcp transport: routing epoch mismatch between nodes")
	}
	for i := range local.Routing {
		if peerHello.Routing[i] != local.Routing[i] {
			conn.Close()
			panic(fmt.Sprintf("orthrus: tcp transport: routing tables differ at partition %d", i))
		}
	}

	// The cc node's writer carries only grants; a depth covering the
	// whole grant window (≤ ExecThreads×Inflight outstanding) means a
	// full writer channel never makes a grant wait a step in its CC
	// thread's outbox.
	if t.role == wire.RoleCC {
		if min := cfg.ExecThreads*cfg.Inflight + 1; nc.WriterDepth < min {
			nc.WriterDepth = min
		}
	}
	t.peer = wire.NewPeer(conn, nc)

	// Queue planes: real rings where this node consumes, netQueues
	// where the consumer is remote. The reader goroutine is the single
	// producer for every wire-fed ring.
	s.execToCC = make([][]spsc.Queue[message], cfg.ExecThreads)
	s.ccToCC = make([][]spsc.Queue[message], cfg.CCThreads)
	s.ccToExec = make([][]spsc.Queue[message], cfg.CCThreads)
	for x := range s.execToCC {
		s.execToCC[x] = make([]spsc.Queue[message], cfg.CCThreads)
		for c := range s.execToCC[x] {
			if t.role == wire.RoleCC {
				s.execToCC[x][c] = spsc.New[message](cfg.QueueCap)
			} else {
				s.execToCC[x][c] = t.newNetQueue(wire.PlaneExecCC, x, c)
			}
		}
	}
	grantCap := cfg.QueueCap
	if grantCap < cfg.Inflight {
		grantCap = cfg.Inflight
	}
	for c := range s.ccToCC {
		s.ccToCC[c] = make([]spsc.Queue[message], cfg.CCThreads)
		if t.role == wire.RoleCC {
			// Forwards stay node-local.
			for j := range s.ccToCC[c] {
				if c != j {
					s.ccToCC[c][j] = spsc.New[message](cfg.QueueCap)
				}
			}
		}
		s.ccToExec[c] = make([]spsc.Queue[message], cfg.ExecThreads)
		for x := range s.ccToExec[c] {
			if t.role == wire.RoleCC {
				s.ccToExec[c][x] = t.newNetQueue(wire.PlaneCCExec, c, x)
			} else {
				s.ccToExec[c][x] = spsc.New[message](grantCap)
			}
		}
	}

	if t.role == wire.RoleCC {
		t.reg = make(map[uint64]*wrapper, cfg.ExecThreads*cfg.Inflight*2)
	}
	t.readerDone = make(chan struct{})
	go t.readLoop()
}

func (t *tcpTransport) newNetQueue(plane uint8, from, to int) *netQueue {
	q := &netQueue{t: t, plane: plane, from: uint16(from), to: uint16(to)}
	t.queues = append(t.queues, q)
	return q
}

// drainPending force-sends frames stranded by a full writer channel.
// Only called from the shutdown sequence, after the threads that own
// the netQueues have exited (WaitGroup-ordered), so the pending fields
// are safe to touch.
func (t *tcpTransport) drainPending() {
	for _, q := range t.queues {
		if q.pending != nil {
			t.peer.Send(q.pending)
			q.pending = nil
		}
	}
}

// execDone: the exec node's threads have exited, so every message this
// node will ever send has been pushed; flush stragglers and send the
// goodbye barrier (FIFO after all data frames).
func (t *tcpTransport) execDone() {
	if t.role != wire.RoleExec {
		return
	}
	t.drainPending()
	t.peer.SendGoodbye()
}

// ccGate holds the cc node's shutdown until the exec node's goodbye:
// at that point the peer's complete send history has been decoded and
// republished into the local rings (the reader dispatches frames in
// order, before marking the goodbye), so the CC threads' final drain
// pass observes every release.
func (t *tcpTransport) ccGate() {
	if t.role == wire.RoleCC {
		<-t.peer.GoodbyeReceived()
	}
}

func (t *tcpTransport) shutdown() NetStats {
	if t.role == wire.RoleCC {
		// CC threads have exited; flush their straggling grants, then
		// announce completion to release the exec node's shutdown.
		t.drainPending()
		t.peer.SendGoodbye()
	}
	t.peer.CloseSend()
	<-t.peer.GoodbyeReceived()
	t.peer.Close()
	<-t.readerDone
	if t.ownLn {
		t.ln.Close()
	}
	st := t.peer.Stats()
	return NetStats{
		FramesSent:       st.FramesSent,
		FramesReceived:   st.FramesRecv,
		MessagesSent:     st.MsgsSent,
		MessagesReceived: st.MsgsRecv,
		BytesSent:        st.BytesSent,
		BytesReceived:    st.BytesRecv,
	}
}

// readLoop is the node's single inbound goroutine: decode one frame at
// a time and republish it into the local ring the frame addresses. It
// exits when the connection closes after the goodbye exchange; a
// connection failure before the peer's goodbye is a hard fault (a node
// died mid-run) and panics loudly rather than hanging the session.
//
//orthrus:coldpath dedicated peer reader: socket reads block by design; hot threads only ever touch the local rings this goroutine feeds
func (t *tcpTransport) readLoop() {
	defer close(t.readerDone)
	defer t.ops.flush(t.s)
	var f wire.Frame
	for {
		if err := t.peer.Recv(&f); err != nil {
			select {
			case <-t.peer.GoodbyeReceived():
				return // orderly shutdown: nothing can follow the goodbye
			default:
			}
			panic(fmt.Sprintf("orthrus: tcp transport: connection lost before peer goodbye: %v", err))
		}
		if f.Plane == wire.PlaneControl {
			continue
		}
		t.dispatch(&f)
	}
}

// dispatch republishes one decoded data frame into its local ring,
// preserving intra-frame order. The reader is the wire's backpressure
// point and the one sender on the plane that may wait for room: it is
// its own goroutine, never co-hosted with the ring's consumer, and it
// has nothing else to do until the frame is delivered.
func (t *tcpTransport) dispatch(f *wire.Frame) {
	var q spsc.Queue[message]
	switch {
	case t.role == wire.RoleCC && f.Plane == wire.PlaneExecCC:
		if int(f.From) >= t.cfg.ExecThreads || int(f.To) >= t.cfg.CCThreads {
			panic(fmt.Sprintf("orthrus: tcp transport: frame addresses unknown queue %d->%d", f.From, f.To))
		}
		q = t.s.execToCC[f.From][f.To]
		for i := range f.Msgs {
			m := &f.Msgs[i]
			switch m.Kind {
			case wire.KindAcquire:
				t.checkAcquire(f, m)
				t.scratch = append(t.scratch, message{kind: msgAcquire, w: t.materialize(m), id: m.TxnID})
			case wire.KindRelease:
				w := t.reg[m.TxnID]
				if w == nil {
					panic("orthrus: tcp transport: release for unknown wire transaction")
				}
				w.wireReleases--
				if w.wireReleases == 0 {
					// Last release: the id dies here. The wrapper itself
					// is recycled by the CC threads' refcount as usual.
					delete(t.reg, m.TxnID)
				}
				t.scratch = append(t.scratch, message{kind: msgRelease, w: w, id: m.TxnID})
			default:
				panic("orthrus: tcp transport: unexpected message kind on the exec->cc plane")
			}
		}
	case t.role == wire.RoleExec && f.Plane == wire.PlaneCCExec:
		if int(f.From) >= t.cfg.CCThreads || int(f.To) >= t.cfg.ExecThreads {
			panic(fmt.Sprintf("orthrus: tcp transport: frame addresses unknown queue %d->%d", f.From, f.To))
		}
		q = t.s.ccToExec[f.From][f.To]
		for i := range f.Msgs {
			m := &f.Msgs[i]
			if m.Kind != wire.KindGrant {
				panic("orthrus: tcp transport: unexpected message kind on the cc->exec plane")
			}
			// The wrapper lives on the owning exec thread; it resolves
			// the id through its pending map (drainGrants).
			t.scratch = append(t.scratch, message{kind: msgAcquire, w: nil, id: m.TxnID})
		}
	default:
		panic("orthrus: tcp transport: frame plane does not match node role")
	}
	for {
		flushOutbox(q, &t.scratch, &t.ops)
		if len(t.scratch) == 0 {
			return
		}
		runtime.Gosched()
	}
}

// checkAcquire rejects a well-formed acquire whose plan the CC threads
// would index-fault on: the codec bounds lengths, not values, and
// materialize copies owner, hop index and hop plan straight into the
// wrapper. The frame's queue address is already bounds-checked, and the
// acquire must agree with it: an exec thread sends only its own
// transactions, to the CC thread its hop index names, along a plan in
// ascending CC order (a re-acquire along the plan already registered).
func (t *tcpTransport) checkAcquire(f *wire.Frame, m *wire.Msg) {
	ok := m.Owner == f.From && int(m.HopIdx) < len(m.Hops) && m.Hops[m.HopIdx].CC == f.To
	for i := range m.Hops {
		ok = ok && int(m.Hops[i].CC) < t.cfg.CCThreads && (i == 0 || m.Hops[i].CC > m.Hops[i-1].CC)
	}
	if w := t.reg[m.TxnID]; ok && w != nil {
		ok = int(m.HopIdx) < len(w.hops) && w.hops[m.HopIdx] == int(f.To)
	}
	if !ok {
		panic(fmt.Sprintf("orthrus: tcp transport: malformed acquire for wire transaction %d on queue %d->%d: owner %d, hop index %d of %d hops",
			m.TxnID, f.From, f.To, m.Owner, m.HopIdx, len(m.Hops)))
	}
}

// materialize builds (or, under DisableForwarding's re-acquires,
// refreshes) the CC node's wrapper for a wire acquire. The wrapper is
// the same pooled structure the in-process plane uses — the CC threads
// cannot tell the transaction's owner is in another process. Wire ids
// are unique per submission attempt (OLLP replans draw a fresh id), so
// an existing entry always means a DisableForwarding hop advance, never
// a stale generation.
func (t *tcpTransport) materialize(m *wire.Msg) *wrapper {
	if w := t.reg[m.TxnID]; w != nil {
		w.hopIdx = int(m.HopIdx)
		return w
	}
	s := t.s
	w := s.wraps.Get().(*wrapper)
	w.t, w.done = nil, nil
	w.id = m.TxnID
	w.owner = int(m.Owner)
	w.epoch = m.Epoch
	w.hopIdx = int(m.HopIdx)
	w.pending = 0
	w.resetPlan()
	for i := range m.Hops {
		h := &m.Hops[i]
		n := len(w.hops)
		w.hops = append(w.hops, int(h.CC))
		if n < cap(w.opsByCC) {
			w.opsByCC = w.opsByCC[:n+1]
		} else {
			w.opsByCC = append(w.opsByCC, nil)
		}
		w.opsByCC[n] = append(w.opsByCC[n][:0], h.Ops...)
		if n < cap(w.reqs) {
			w.reqs = w.reqs[:n+1]
			w.reqs[n] = w.reqs[n][:0]
		} else {
			w.reqs = append(w.reqs, nil)
		}
	}
	nh := len(w.hops)
	w.wireReleases = nh
	w.releasesLeft.Store(int32(nh))
	// One reference per CC hop and nothing else on this node: the
	// owning exec thread and any WAL ack hold references to the exec
	// node's twin wrapper, not this one.
	w.refs.Store(int32(nh))
	// Balance releaseTxn's unconditional epoch retirement.
	s.epochs.add(w.epoch, 1)
	t.reg[m.TxnID] = w
	return w
}

// netQueue adapts one remote (plane, from, to) queue slot to the
// spsc.Queue interface: the producing thread's flushOutbox pass becomes
// one wire frame handed to the peer's writer goroutine. Send-only — the
// consuming side of a wire queue is a real ring fed by the reader.
//
// Message payloads are copied into the frame at enqueue time, so a
// wrapper recycled immediately after (releases carry only the wire id)
// can never be read by the writer. A frame the writer channel cannot
// accept parks in pending — the messages it holds are already consumed
// from the caller's outbox, and per-queue FIFO is preserved because the
// next TryEnqueueBatch refuses to ship anything until pending leaves.
type netQueue struct {
	t        *tcpTransport
	plane    uint8
	from, to uint16
	pending  *wire.Frame
}

// TryEnqueueBatch coalesces vs into one frame (bounded by the MaxFrame
// soft cap) and hands it to the writer, returning how many messages it
// consumed. Returns 0 without consuming anything when the writer
// channel is full and a pending frame is already parked — flushOutbox
// then leaves the messages in the sender's outbox for its next step,
// the same backpressure a full ring applies.
//
//orthrus:hotpath
func (q *netQueue) TryEnqueueBatch(vs []message) int {
	p := q.t.peer
	if q.pending != nil {
		if !p.TrySend(q.pending) {
			return 0
		}
		q.pending = nil
	}
	if len(vs) == 0 {
		return 0
	}
	f := p.Get()
	f.Plane, f.From, f.To = q.plane, q.from, q.to
	max := p.MaxFrame()
	size := wire.FrameHeaderSize
	n := 0
	for i := range vs {
		m := f.AddMsg()
		q.fill(m, &vs[i])
		sz := m.EncodedSize()
		if n > 0 && size+sz > max {
			f.Msgs = f.Msgs[:n] // roll the overflow message back
			break
		}
		size += sz
		n++
	}
	if !p.TrySend(f) {
		q.pending = f
	}
	return n
}

// fill copies one in-process message into its wire form. Acquires
// snapshot the wrapper's plan here, on the owning thread, so the frame
// is self-contained no matter when the writer serializes it.
//
//orthrus:hotpath
func (q *netQueue) fill(wm *wire.Msg, m *message) {
	wm.TxnID = m.id
	switch {
	case q.plane == wire.PlaneCCExec:
		wm.Kind = wire.KindGrant
	case m.kind == msgRelease:
		wm.Kind = wire.KindRelease
	default:
		wm.Kind = wire.KindAcquire
		w := m.w
		wm.Owner = uint16(w.owner)
		wm.HopIdx = uint16(w.hopIdx)
		wm.Epoch = w.epoch
		for i, c := range w.hops {
			h := wm.AddHop(uint16(c))
			h.Ops = append(h.Ops[:0], w.opsByCC[i]...)
		}
	}
}

func (q *netQueue) DequeueBatch([]message) int {
	panic("orthrus: netQueue is send-only (the peer's reader feeds local rings)")
}

var _ spsc.Queue[message] = (*netQueue)(nil)
