package orthrus

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/spsc"
	wire "repro/internal/transport"
)

// TransportConfig selects the message plane. The zero value is the
// in-process plane: every thread in one process, one SPSC ring per
// ordered thread pair.
//
// Kind "tcp" splits the engine across two OS processes: a "cc" node
// hosting every CC thread and an "exec" node hosting every execution
// thread, connected by one TCP connection carrying batched frames (see
// internal/transport and README "Distributed message plane"). Each node
// builds the same rings; where a ring's consumer lives on the peer node,
// the node's net stepper drains it and frames what it takes. Both
// processes construct the same Config apart from this struct; the
// handshake verifies they agree on thread counts before any message
// flows, and the cc node checks every acquire's routing against its own
// Partition (netStepper.checkAcquire). The wire runs at
// internal/transport's defaults: frame cap, dial and accept timeouts.
type TransportConfig struct {
	// Kind is "" for the in-process plane, "tcp" for the networked
	// plane.
	Kind string
	// Role is this process's half of the tcp split: "cc" or "exec".
	Role string
	// Listener is the bound listener the cc node accepts on (so callers
	// can bind :0 and learn the port first).
	Listener net.Listener
	// Peer is the exec node's target: the cc node's address.
	Peer string
}

// remote reports whether the plane crosses a process boundary.
func (c TransportConfig) remote() bool { return c.Kind == "tcp" }

// Validate panics on malformed transport configuration: unknown kinds
// or roles, a role without its required endpoint, a peer address that
// does not parse as host:port, or tcp-role fields set on the in-process
// plane.
func (c TransportConfig) Validate() {
	switch c.Kind {
	case "":
		if c.Role != "" || c.Listener != nil || c.Peer != "" {
			panic("orthrus: Transport.Role/Listener/Peer require Transport.Kind \"tcp\"")
		}
	case "tcp":
		switch c.Role {
		case "cc":
			if c.Listener == nil {
				panic("orthrus: Transport.Role \"cc\" requires Listener")
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
			if c.Listener != nil {
				panic("orthrus: Transport.Listener is the cc role's knob; the exec role dials")
			}
		default:
			panic(fmt.Sprintf("orthrus: Transport.Role %q unknown (want \"cc\" or \"exec\" with Kind \"tcp\")", c.Role))
		}
	default:
		panic(fmt.Sprintf("orthrus: Transport.Kind %q unknown (want \"\" or \"tcp\")", c.Kind))
	}
}

// NetStats counts the session's wire traffic (zero on the in-process
// plane), as its net stepper's Peer counted it.
type NetStats = wire.Stats

// connect connects this node to its peer — the cc node accepts, the exec
// node dials with retry (the two processes may start in either order) —
// checks the handshake, and builds the net stepper over s's rings, which
// must already exist.
func connect(s *runState) *netStepper {
	cfg := s.cfg
	tc := cfg.Transport
	role := wire.RoleExec
	var conn net.Conn
	var err error
	if s.hostsCC() {
		role = wire.RoleCC
		conn, err = wire.Accept(tc.Listener, wire.DefaultAcceptTimeout)
		if err != nil {
			panic(fmt.Sprintf("orthrus: tcp transport: accept: %v", err))
		}
	} else {
		conn, err = wire.Dial(tc.Peer, wire.DefaultDialTimeout)
		if err != nil {
			panic(fmt.Sprintf("orthrus: tcp transport: %v", err))
		}
	}

	// Handshake: both processes derived their topology independently from
	// their own Config; refuse to run unless the thread counts agree.
	local := wire.Hello{
		Role:        role,
		CCThreads:   uint16(cfg.CCThreads),
		ExecThreads: uint16(cfg.ExecThreads),
	}
	peerHello, err := wire.Exchange(conn, &local, wire.DefaultDialTimeout)
	if err != nil {
		conn.Close()
		panic(fmt.Sprintf("orthrus: tcp transport: handshake: %v", err))
	}
	wantRole := wire.RoleCC
	if role == wire.RoleCC {
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

	return newNetStepper(s, role, wire.NewPeer(conn, wire.Config{}))
}

// netStepper is one node's half of the networked message plane. The
// two-node split keeps every CC thread on one process and every exec
// thread on the other, so exactly two planes cross the wire — exec→CC
// (acquires, releases) and CC→exec (grants) — while CC→CC forwards stay
// node-local: the ascending-CC-id forwarding chains that carry the
// paper's deadlock-freedom argument never leave the CC node, and the
// wire adds no new cycle to the acyclic forwarding graph (see README).
//
// It is the node's socket as a logical thread: a worker steps it
// like an execThread or a ccThread (worker.go), and like theirs its step
// never waits. Inbound, one non-blocking read, decoded in place and
// republished into the local rings the frames address; what a full ring
// refuses stays in that ring's outbox (in) for the next step, like every
// other sender's. Outbound, it is the single consumer of every ring whose
// consumer lives on the peer node: it drains them, frames what it took
// and offers the frames to the socket in one non-blocking write; what the
// socket does not take stays in the Peer's buffer. Producer threads only
// publish into those rings, as they would in-process, and never touch the
// Peer.
//
// It stands in for the peer's threads: the one place that knows the
// other role is remote. It frames every message from its wrapper, alive
// when framed, and keeps reg, the wire id → wrapper map. On the exec node
// it registers each acquire as it frames it, resolves its grant through
// reg (dispatch), and holds the remote hops' wrapper references, dropping
// one per release it frames, as a CC thread does in-process. On the cc
// node each acquire becomes a registered wrapper (materialize) whose
// references the CC threads hold; its grant is framed before any release
// for it can exist.
//
// Liveness. A step reads whatever the state of its write side, so two
// nodes with full socket buffers still empty each other's. And what it
// reads finds room without anyone waiting: the cc node's wire-fed rings
// are drained unconditionally by every CC step; the exec node's, like the
// cc node's grant rings, hold a whole in-flight window of grants, and a
// transaction has at most one grant outstanding anywhere. So a full
// socket buffer only ever parks bytes in the Peer's buffer (bounded:
// gather stops past MaxFrame), messages in the outbound rings behind it,
// and messages in their senders' outboxes behind those.
//
// Shutdown is stepper state. Close sets closing (execRetired, shutdown)
// once every local thread feeding the outbound rings has retired; the
// stepper drains them and appends its goodbye. It closes heard once the
// peer's goodbye is decoded and its outboxes (in) are empty, and retires
// — goodbye written, the peer's heard, nothing buffered — whereupon its
// worker releases retired.
type netStepper struct {
	s    *runState
	role uint8
	peer *wire.Peer

	in    outboxes   // to the wire-fed local rings, indexed [from*consumers+to]
	out   []wireRing // the rings whose consumer is on the peer node
	batch []message  // the outbound drain buffer, BatchSize long
	frame wire.Frame // the decode target, reused
	ops   opCounter

	// reg maps live wire transaction ids to wrappers: on the exec node
	// each framed acquire's until its grant is dispatched, on the cc node
	// each materialized one's until its last release (wireReleases).
	reg map[uint64]*wrapper

	closing  atomic.Bool
	saidBye  bool
	heardBye bool
	heard    chan struct{}
	retired  sync.WaitGroup
}

// wireRing is one ring whose consumer is on the peer node, with the
// queue address its frames carry.
type wireRing struct {
	ring     *spsc.Ring[message]
	plane    uint8
	from, to uint16
}

// newNetStepper binds a stepper to the two wire-crossing planes of s: it
// feeds the one this node consumes (in [from][to] order, the order
// dispatch indexes n.in by) and frames the one it produces.
func newNetStepper(s *runState, role uint8, peer *wire.Peer) *netStepper {
	n := &netStepper{s: s, role: role, peer: peer, batch: make([]message, s.cfg.BatchSize), heard: make(chan struct{}),
		reg: make(map[uint64]*wrapper, s.cfg.ExecThreads*s.cfg.Inflight*2)}
	in, out, plane := s.ccToExec, s.execToCC, wire.PlaneExecCC
	if role == wire.RoleCC {
		in, out, plane = s.execToCC, s.ccToExec, wire.PlaneCCExec
	}
	for _, row := range in {
		n.in = append(n.in, newOutboxes(row)...)
	}
	for i, row := range out {
		for j, r := range row {
			n.out = append(n.out, wireRing{ring: r, plane: plane, from: uint16(i), to: uint16(j)})
		}
	}
	n.retired.Add(1)
	return n
}

// execRetired is Close's barrier once the execution threads retire. On
// the exec node every message it will ever send is now in a ring, and the
// stepper says goodbye once it has framed them all. The cc node holds
// here until the exec node's goodbye is decoded and every message before
// it republished into the local rings, so the CC threads' final drain
// pass observes every release.
func (n *netStepper) execRetired() {
	if n.role == wire.RoleExec {
		n.closing.Store(true)
	} else {
		<-n.heard
	}
}

// shutdown waits for the stepper to retire — its goodbye written behind
// this node's last frame (on the cc node the CC threads have retired by
// now), the peer's goodbye heard, nothing buffered either way — and tears
// the connection down.
func (n *netStepper) shutdown() NetStats {
	n.closing.Store(true)
	n.retired.Wait()
	n.peer.Close()
	return n.peer.Stats()
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
	// retired, so a gather that then leaves the outbound rings empty has
	// seen all they will ever hold.
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

// gather drains the outbound rings and frames what it takes behind
// whatever the socket has not yet taken, one drained batch at a time,
// stopping once that passes MaxFrame: the rest stays in the rings for the
// next step. It reports whether it moved anything and whether it left the
// rings empty.
func (n *netStepper) gather() (moved, drained bool) {
	for i := range n.out {
		o := &n.out[i]
		for {
			if n.peer.Buffered() >= n.peer.MaxFrame() {
				return moved, false
			}
			k := o.ring.DequeueBatch(n.batch)
			if k == 0 {
				break
			}
			n.encode(o, n.batch[:k])
			moved = true
			if k < len(n.batch) {
				break
			}
		}
	}
	return moved, true
}

// encode appends one drained batch to the Peer as one frame for o's
// queue, in ring order, opening another wherever the next message would
// pass MaxFrame: a frame stays within the cap unless it carries a single
// message. A message is settled (framed) once it has its place, since one
// that opens the next frame is filled twice.
//
//orthrus:hotpath
func (n *netStepper) encode(o *wireRing, ms []message) {
	f := n.open(o)
	size := wire.FrameHeaderSize
	for i := 0; i < len(ms); {
		m := f.AddMsg()
		o.fill(m, &ms[i])
		sz := m.EncodedSize()
		if len(f.Msgs) > 1 && size+sz > n.peer.MaxFrame() {
			f.Msgs = f.Msgs[:len(f.Msgs)-1] // ms[i] opens the next frame
			n.peer.Append(f)
			f, size = n.open(o), wire.FrameHeaderSize
			continue
		}
		size += sz
		n.framed(&ms[i])
		i++
	}
	n.peer.Append(f)
}

// framed settles one framed message on the exec node, where the stepper
// stands in for the remote CC threads: an acquire's id is registered for
// its grant, and a release drops the reference its remote hop held, the
// wrapper's last read on this node for that hop.
//
//orthrus:hotpath
func (n *netStepper) framed(m *message) {
	switch {
	case n.role != wire.RoleExec:
	case m.kind == msgRelease:
		n.s.dropRef(m.w)
	default:
		n.reg[m.w.id] = m.w
	}
}

// open returns an empty pooled frame addressed to o's queue.
func (n *netStepper) open(o *wireRing) *wire.Frame {
	f := n.peer.Get()
	f.Plane, f.From, f.To = o.plane, o.from, o.to
	return f
}

// fill copies one ring message into its wire form: a grant or a release
// is its wrapper's id alone; an acquire also carries its owner and plan.
//
//orthrus:hotpath
func (o *wireRing) fill(wm *wire.Msg, m *message) {
	w := m.w
	wm.TxnID = w.id
	switch {
	case o.plane == wire.PlaneCCExec:
		wm.Kind = wire.KindGrant
	case m.kind == msgRelease:
		wm.Kind = wire.KindRelease
	default:
		wm.Kind = wire.KindAcquire
		wm.Owner = uint16(w.owner)
		for i, c := range w.hops {
			h := wm.AddHop(uint16(c))
			h.Ops = append(h.Ops[:0], w.opsByCC[i]...)
		}
	}
}

// dispatch resolves one decoded data frame's messages to wrappers and
// queues them for the local ring the frame addresses, behind anything that
// ring has not yet taken. A cc node takes exec→cc frames (acquires,
// releases), an exec node cc→exec ones (grants). A grant must name an
// acquire this node framed, still ungranted, of the exec thread the frame
// addresses, from the last CC thread of its chain: the exec threads
// trust it as they trust a ring from a local CC thread.
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
			w := n.reg[m.TxnID]
			if w == nil || w.owner != int(f.To) || w.hops[len(w.hops)-1] != int(f.From) {
				panic(fmt.Sprintf("orthrus: tcp transport: grant for wire transaction %d on queue %d->%d matches no acquire in flight there", m.TxnID, f.From, f.To))
			}
			delete(n.reg, m.TxnID) // one grant per acquire
			in.buf = append(in.buf, message{kind: msgAcquire, w: w})
		case cc && m.Kind == wire.KindAcquire:
			n.checkAcquire(f, m)
			in.buf = append(in.buf, message{kind: msgAcquire, w: n.materialize(m)})
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
			in.buf = append(in.buf, message{kind: msgRelease, w: w})
		default:
			panic(fmt.Sprintf("orthrus: tcp transport: unexpected message kind %d on plane %d", m.Kind, f.Plane))
		}
	}
}

// checkAcquire rejects a well-formed acquire whose plan the CC threads
// would index-fault on or lock in the wrong table: the codec bounds
// lengths, not values, and materialize copies owner and hop plan straight
// into the wrapper. The frame's queue address is already bounds-checked,
// and the acquire must agree with it: an exec thread sends only its own
// transactions, to the first CC thread of a plan in ascending CC order
// whose every op this node's Partition routes to its hop's CC thread —
// the CC threads themselves trust the route. Each attempt sends exactly
// one acquire, so an id that is already registered is refused: its
// request slots are linked into live lock queues.
func (n *netStepper) checkAcquire(f *wire.Frame, m *wire.Msg) {
	ok := m.Owner == f.From && len(m.Hops) > 0 && m.Hops[0].CC == f.To && n.reg[m.TxnID] == nil
	for i := range m.Hops {
		h := &m.Hops[i]
		ok = ok && int(h.CC) < n.s.cfg.CCThreads && (i == 0 || h.CC > m.Hops[i-1].CC)
		for j := 0; ok && j < len(h.Ops); j++ {
			ok = n.s.ccOf(h.Ops[j].Table, h.Ops[j].Key) == int(h.CC)
		}
	}
	if !ok {
		panic(fmt.Sprintf("orthrus: tcp transport: malformed acquire for wire transaction %d on queue %d->%d: owner %d, %d hops",
			m.TxnID, f.From, f.To, m.Owner, len(m.Hops)))
	}
}

// materialize builds the CC node's wrapper for a wire acquire. The
// wrapper is the same pooled structure the in-process plane uses — the
// CC threads cannot tell the transaction's owner is in another process —
// and, pooled with hopIdx 0, enters its chain at the first hop. Wire ids
// are unique per submission attempt (every attempt draws a fresh id), and
// checkAcquire refused any id still registered, so each wrapper is fresh.
func (n *netStepper) materialize(m *wire.Msg) *wrapper {
	s := n.s
	w := s.wraps.Get().(*wrapper)
	w.id = m.TxnID
	w.owner = int(m.Owner)
	w.pending = 0
	w.resetPlan()
	for i := range m.Hops {
		h := &m.Hops[i]
		copy(w.addHop(int(h.CC), len(h.Ops)), h.Ops)
	}
	nh := len(w.hops)
	w.wireReleases = nh
	// One reference per CC hop and nothing else on this node: the
	// owning exec thread holds its reference to the exec node's twin
	// wrapper, not this one.
	w.refs.Store(int32(nh))
	n.reg[m.TxnID] = w
	return w
}
