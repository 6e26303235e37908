package orthrus

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

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
// handshake verifies they agree on thread counts before any message
// flows, and the cc node checks every acquire's routing against its own
// Partition (netStepper.checkAcquire).
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
	// Net are the wire-level knobs (frame cap, dial and accept
	// timeouts).
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
// plane), as its net stepper's Peer counted it.
type NetStats = wire.Stats

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
// backend maps them onto its net stepper's goodbye barrier.
type Transport interface {
	name() string
	// hostsCC / hostsExec report which thread roles run in this
	// process; the other role's threads live on the peer node.
	hostsCC() bool
	hostsExec() bool
	install(s *runState)
	// wire is the node's socket as one more logical thread for a worker
	// to host (worker.go); nil on the in-process plane.
	wire() *netStepper
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
	s.execToCC = rings(cfg.ExecThreads, cfg.CCThreads, cfg.QueueCap, false)
	s.ccToCC = rings(cfg.CCThreads, cfg.CCThreads, cfg.QueueCap, true)
	s.ccToExec = rings(cfg.CCThreads, cfg.ExecThreads, grantCap(cfg), false)
}

// rings builds a from×to matrix of rings, without the diagonal when a
// thread never sends to itself.
func rings(from, to, capacity int, skipSelf bool) [][]spsc.Queue[message] {
	m := make([][]spsc.Queue[message], from)
	for i := range m {
		m[i] = make([]spsc.Queue[message], to)
		for j := range m[i] {
			if !skipSelf || i != j {
				m[i][j] = spsc.New[message](capacity)
			}
		}
	}
	return m
}

// grantCap sizes whatever carries grants to hold the whole in-flight
// window, so a grant never waits a step in its CC thread's outbox for
// room.
func grantCap(cfg Config) int { return max(cfg.QueueCap, cfg.Inflight) }

func (inprocTransport) wire() *netStepper  { return nil }
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
// The socket itself is one more logical thread, the netStepper.
type tcpTransport struct {
	cfg  Config
	role uint8

	peer  *wire.Peer
	ln    net.Listener
	ownLn bool
	net   *netStepper
}

func (t *tcpTransport) name() string      { return "tcp/" + t.cfg.Transport.Role }
func (t *tcpTransport) hostsCC() bool     { return t.role == wire.RoleCC }
func (t *tcpTransport) hostsExec() bool   { return t.role == wire.RoleExec }
func (t *tcpTransport) wire() *netStepper { return t.net }

func (t *tcpTransport) install(s *runState) {
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

	// Handshake: both processes derived their topology independently from
	// their own Config; refuse to run unless the thread counts agree.
	local := wire.Hello{
		Role:        t.role,
		CCThreads:   uint16(cfg.CCThreads),
		ExecThreads: uint16(cfg.ExecThreads),
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
	if peerHello.CCThreads != local.CCThreads || peerHello.ExecThreads != local.ExecThreads {
		conn.Close()
		panic(fmt.Sprintf("orthrus: tcp transport: topology mismatch: local %dcc/%dex, peer %dcc/%dex",
			local.CCThreads, local.ExecThreads, peerHello.CCThreads, peerHello.ExecThreads))
	}

	t.peer = wire.NewPeer(conn, nc)
	t.net = newNetStepper(s, t.role, t.peer)

	// Queue planes: real rings where this node consumes — the net stepper
	// is the single producer of every wire-fed one — and netQueues where
	// the consumer is remote, each as deep as the ring it stands in for.
	// Forwards stay node-local.
	cc := t.role == wire.RoleCC
	s.execToCC = t.net.plane(wire.PlaneExecCC, cfg.ExecThreads, cfg.CCThreads, cc, cfg.QueueCap)
	s.ccToExec = t.net.plane(wire.PlaneCCExec, cfg.CCThreads, cfg.ExecThreads, !cc, grantCap(cfg))
	if cc {
		s.ccToCC = rings(cfg.CCThreads, cfg.CCThreads, cfg.QueueCap, true)
	}
}

// execDone: the exec node's threads have retired, so every frame this
// node will ever send is in a netQueue; the net stepper says goodbye once
// it has drained them.
func (t *tcpTransport) execDone() {
	if t.role == wire.RoleExec {
		t.net.closing.Store(true)
	}
}

// ccGate holds the cc node's shutdown until the exec node's goodbye is
// decoded and every message before it republished into the local rings,
// so the CC threads' final drain pass observes every release.
func (t *tcpTransport) ccGate() {
	if t.role == wire.RoleCC {
		<-t.net.heard
	}
}

// shutdown waits for the net stepper to retire — its goodbye written
// behind this node's last frame (on the cc node the CC threads have
// retired by now), the peer's goodbye heard, nothing buffered either way
// — and tears the connection down.
func (t *tcpTransport) shutdown() NetStats {
	t.net.closing.Store(true)
	t.net.retired.Wait()
	t.peer.Close()
	if t.ownLn {
		t.ln.Close()
	}
	return t.peer.Stats()
}

// netStepper is the node's socket as a logical thread: a worker steps it
// like an execThread or a ccThread (worker.go), and like theirs its step
// never waits. Inbound, one non-blocking read, decoded in place and
// republished into the local rings the frames address; what a full ring
// refuses stays in that ring's outbox (in) for the next step, like every
// other sender's. Outbound, whatever the node's netQueues hold is
// encoded and offered to the socket in one non-blocking write; what the
// socket does not take stays in the Peer's buffer.
//
// Liveness. A step reads whatever the state of its write side, so two
// nodes with full socket buffers still empty each other's. And what it
// reads finds room without anyone waiting: the cc node's wire-fed rings
// are drained unconditionally by every CC step; the exec node's, like the
// cc→net hand-offs, hold a whole in-flight window of grants, and a
// transaction has at most one grant outstanding anywhere. So a full
// socket buffer only ever parks bytes in the Peer's buffer (bounded:
// gather stops past MaxFrame), frames in the netQueues behind it, and
// messages in their senders' outboxes behind those.
//
// Shutdown is stepper state. Close's sequence sets closing once every
// local thread feeding the netQueues has retired; the stepper drains them
// and appends its goodbye. It closes heard once the peer's goodbye is
// decoded and its outboxes (in) are empty, and retires — goodbye written, the
// peer's heard, nothing buffered — whereupon its worker releases retired.
type netStepper struct {
	s    *runState
	role uint8
	peer *wire.Peer

	in    outboxes    // to the wire-fed local rings, indexed [from*consumers+to]
	out   []*netQueue // outbound hand-offs
	frame wire.Frame  // the decode target, reused
	ops   opCounter

	// reg maps live wire transaction ids to this CC node's materialized
	// wrappers; each entry dies with its last release (wireReleases).
	reg map[uint64]*wrapper

	closing  atomic.Bool
	saidBye  bool
	heardBye bool
	heard    chan struct{}
	retired  sync.WaitGroup
}

func newNetStepper(s *runState, role uint8, peer *wire.Peer) *netStepper {
	n := &netStepper{s: s, role: role, peer: peer, heard: make(chan struct{})}
	if role == wire.RoleCC {
		n.reg = make(map[uint64]*wrapper, s.cfg.ExecThreads*s.cfg.Inflight*2)
	}
	n.retired.Add(1)
	return n
}

// plane builds one wire-crossing from×to queue matrix: rings the stepper
// feeds where this node consumes (in [from][to] order, the order dispatch
// indexes n.in by), netQueues it drains where it produces.
func (n *netStepper) plane(plane uint8, from, to int, consumes bool, capacity int) [][]spsc.Queue[message] {
	m := make([][]spsc.Queue[message], from)
	for i := range m {
		m[i] = make([]spsc.Queue[message], to)
		for j := range m[i] {
			if consumes {
				q := spsc.New[message](capacity)
				n.in = append(n.in, outbox{q: q})
				m[i][j] = q
				continue
			}
			q := &netQueue{peer: n.peer, ring: spsc.New[*wire.Frame](capacity), plane: plane, from: uint16(i), to: uint16(j)}
			n.out = append(n.out, q)
			m[i][j] = q
		}
	}
	return m
}

// step is one pass over the socket: read and dispatch, republish, gather
// and write. A connection lost before the peer's goodbye is a hard fault
// (a node died mid-run) and panics loudly rather than hanging the
// session.
//
//orthrus:hotpath
func (n *netStepper) step() (progress, exit bool) {
	if !n.peer.GoodbyeSeen() { // nothing can follow the goodbye
		got, err := n.peer.Fill()
		for more := got > 0; more && err == nil; {
			if more, err = n.peer.Next(&n.frame); more && n.frame.Plane != wire.PlaneControl {
				n.dispatch(&n.frame)
			}
		}
		lost(err)
		progress = got > 0
	}
	progress = n.in.flushAll(&n.ops) || progress
	if !n.heardBye && n.peer.GoodbyeSeen() && n.in.empty() { // all read is delivered
		n.heardBye = true
		close(n.heard)
	}

	// Read the flag before the gather: once set every producer has
	// retired, so a gather that then leaves the netQueues empty has seen
	// all they will ever hold.
	closing := n.closing.Load()
	moved, drained := n.gather()
	if closing && drained && !n.saidBye {
		n.peer.AppendGoodbye()
		n.saidBye = true
	}
	wrote, err := n.peer.Flush()
	lost(err)
	if n.saidBye && n.heardBye && n.peer.Buffered() == 0 {
		n.ops.flush(n.s)
		return true, true
	}
	return progress || moved || wrote, false
}

func lost(err error) {
	if err != nil {
		panic(fmt.Sprintf("orthrus: tcp transport: connection lost before peer goodbye: %v", err))
	}
}

// gather encodes the frames the netQueues hold behind whatever the socket
// has not yet taken, stopping once that passes MaxFrame, and reports
// whether it moved any and whether it left the queues empty.
func (n *netStepper) gather() (moved, drained bool) {
	for _, q := range n.out {
		for {
			if n.peer.Buffered() >= n.peer.MaxFrame() {
				return moved, false
			}
			f, ok := q.ring.TryDequeue()
			if !ok {
				break
			}
			n.peer.Append(f)
			moved = true
		}
	}
	return moved, true
}

// dispatch queues one decoded data frame's messages for the local ring it
// addresses, behind anything that ring has not yet taken. A cc node takes
// exec→cc frames (acquires, releases), an exec node cc→exec ones (grants).
func (n *netStepper) dispatch(f *wire.Frame) {
	cc := n.role == wire.RoleCC
	froms, tos := n.s.cfg.ExecThreads, n.s.cfg.CCThreads
	if !cc {
		froms, tos = tos, froms
	}
	if cc != (f.Plane == wire.PlaneExecCC) {
		panic("orthrus: tcp transport: frame plane does not match node role")
	}
	if int(f.From) >= froms || int(f.To) >= tos {
		panic(fmt.Sprintf("orthrus: tcp transport: frame addresses unknown queue %d->%d", f.From, f.To))
	}
	in := &n.in[int(f.From)*tos+int(f.To)]
	for i := range f.Msgs {
		m := &f.Msgs[i]
		switch {
		case !cc && m.Kind == wire.KindGrant:
			// The wrapper lives on the owning exec thread; it resolves
			// the id through its pending map (drainGrants).
			in.buf = append(in.buf, message{kind: msgAcquire, w: nil, id: m.TxnID})
		case cc && m.Kind == wire.KindAcquire:
			n.checkAcquire(f, m)
			in.buf = append(in.buf, message{kind: msgAcquire, w: n.materialize(m), id: m.TxnID})
		case cc && m.Kind == wire.KindRelease:
			w := n.reg[m.TxnID]
			if w == nil {
				panic("orthrus: tcp transport: release for unknown wire transaction")
			}
			w.wireReleases--
			if w.wireReleases == 0 {
				// Last release: the id dies here. The wrapper itself
				// is recycled by the CC threads' refcount as usual.
				delete(n.reg, m.TxnID)
			}
			in.buf = append(in.buf, message{kind: msgRelease, w: w, id: m.TxnID})
		default:
			panic(fmt.Sprintf("orthrus: tcp transport: unexpected message kind %d on plane %d", m.Kind, f.Plane))
		}
	}
}

// checkAcquire rejects a well-formed acquire whose plan the CC threads
// would index-fault on or lock in the wrong table: the codec bounds
// lengths, not values, and materialize copies owner, hop index and hop
// plan straight into the wrapper. The frame's queue address is already
// bounds-checked, and the acquire must agree with it: an exec thread
// sends only its own transactions, to the CC thread its hop index names,
// along a plan in ascending CC order (a re-acquire along the plan already
// registered) whose every op this node's Partition routes to its hop's CC
// thread — the CC threads themselves trust the route.
func (n *netStepper) checkAcquire(f *wire.Frame, m *wire.Msg) {
	ok := m.Owner == f.From && int(m.HopIdx) < len(m.Hops) && m.Hops[m.HopIdx].CC == f.To
	for i := range m.Hops {
		h := &m.Hops[i]
		ok = ok && int(h.CC) < n.s.cfg.CCThreads && (i == 0 || h.CC > m.Hops[i-1].CC)
		for j := 0; ok && j < len(h.Ops); j++ {
			ok = n.s.ccOf(h.Ops[j].Table, h.Ops[j].Key) == int(h.CC)
		}
	}
	if w := n.reg[m.TxnID]; ok && w != nil {
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
func (n *netStepper) materialize(m *wire.Msg) *wrapper {
	if w := n.reg[m.TxnID]; w != nil {
		w.hopIdx = int(m.HopIdx)
		return w
	}
	s := n.s
	w := s.wraps.Get().(*wrapper)
	w.t, w.done = nil, nil
	w.id = m.TxnID
	w.owner = int(m.Owner)
	w.hopIdx = int(m.HopIdx)
	w.pending = 0
	w.resetPlan()
	for i := range m.Hops {
		h := &m.Hops[i]
		hop := w.addHop(int(h.CC), len(h.Ops))
		w.opsByCC[hop] = append(w.opsByCC[hop], h.Ops...)
	}
	nh := len(w.hops)
	w.wireReleases = nh
	// One reference per CC hop and nothing else on this node: the
	// owning exec thread and any WAL ack hold references to the exec
	// node's twin wrapper, not this one.
	w.refs.Store(int32(nh))
	n.reg[m.TxnID] = w
	return w
}

// netQueue adapts one remote (plane, from, to) queue slot to the
// spsc.Queue interface: the producing thread's outbox flush becomes
// one wire frame, handed to the net stepper over a ring of its own — the
// producing thread is its one producer, the stepper its one consumer.
// Send-only: the consuming side of a wire queue is a real ring on the
// peer node.
//
// Message payloads are copied into the frame at enqueue time, so a
// wrapper recycled immediately after (releases carry only the wire id)
// can never be read by the stepper.
type netQueue struct {
	peer     *wire.Peer // the frame pool and the MaxFrame cap
	ring     *spsc.Ring[*wire.Frame]
	plane    uint8
	from, to uint16
}

// TryEnqueueBatch coalesces vs into one frame (bounded by the MaxFrame
// soft cap) and hands it to the net stepper, returning how many messages
// it consumed: 0, consuming nothing, when the hand-off is full —
// outbox.flush then leaves the messages in the sender's outbox for its
// next step, the same backpressure a full ring applies.
//
//orthrus:hotpath
func (q *netQueue) TryEnqueueBatch(vs []message) int {
	if len(vs) == 0 || q.ring.Len() == q.ring.Cap() {
		return 0
	}
	f := q.peer.Get()
	f.Plane, f.From, f.To = q.plane, q.from, q.to
	max := q.peer.MaxFrame()
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
	q.ring.TryEnqueue(f) // has room: only this thread adds to the ring
	return n
}

// fill copies one in-process message into its wire form. Acquires
// snapshot the wrapper's plan here, on the owning thread, so the frame
// is self-contained no matter when the net stepper encodes it.
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
		for i, c := range w.hops {
			h := wm.AddHop(uint16(c))
			h.Ops = append(h.Ops[:0], w.opsByCC[i]...)
		}
	}
}

func (q *netQueue) DequeueBatch([]message) int {
	panic("orthrus: netQueue is send-only (the peer node's net stepper feeds its local rings)")
}

var _ spsc.Queue[message] = (*netQueue)(nil)
