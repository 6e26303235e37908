package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config are the wire-level knobs of a networked message plane.
type Config struct {
	// MaxFrame caps the encoded payload bytes one frame coalesces
	// (soft: a single message larger than the cap still ships alone,
	// in its own oversized frame). 0 means DefaultMaxFrame.
	MaxFrame int
	// WriterDepth is the per-peer writer queue depth in frames. The
	// CC node raises it to cover the grant window (see the liveness
	// argument in README "Distributed message plane"). 0 means
	// DefaultWriterDepth.
	WriterDepth int
	// DialTimeout bounds connection establishment (the dialer retries
	// until it expires, absorbing the peer's startup race) and the
	// handshake exchange. 0 means DefaultDialTimeout.
	DialTimeout time.Duration
	// AcceptTimeout bounds how long the listening node waits for its
	// peer to connect. 0 means DefaultAcceptTimeout.
	AcceptTimeout time.Duration
}

// Defaults for Config's zero fields.
const (
	DefaultMaxFrame    = 64 << 10
	DefaultWriterDepth = 1024
	// minMaxFrame keeps a configured cap large enough for any
	// header-only message; below it nothing could ever ship.
	minMaxFrame = 64
)

const (
	DefaultDialTimeout   = 5 * time.Second
	DefaultAcceptTimeout = 30 * time.Second
)

// Validate panics on out-of-range knobs (zero always means "use the
// default").
func (c Config) Validate() {
	if c.MaxFrame < 0 {
		panic(fmt.Sprintf("transport: MaxFrame %d is negative", c.MaxFrame))
	}
	if c.MaxFrame > 0 && c.MaxFrame < minMaxFrame {
		panic(fmt.Sprintf("transport: MaxFrame %d is below the minimum %d (0 means default %d)",
			c.MaxFrame, minMaxFrame, DefaultMaxFrame))
	}
	if c.MaxFrame > maxWirePayload {
		panic(fmt.Sprintf("transport: MaxFrame %d exceeds the wire cap %d", c.MaxFrame, maxWirePayload))
	}
	if c.WriterDepth < 0 {
		panic(fmt.Sprintf("transport: WriterDepth %d is negative", c.WriterDepth))
	}
	if c.DialTimeout < 0 {
		panic(fmt.Sprintf("transport: DialTimeout %v is negative", c.DialTimeout))
	}
	if c.AcceptTimeout < 0 {
		panic(fmt.Sprintf("transport: AcceptTimeout %v is negative", c.AcceptTimeout))
	}
}

// WithDefaults returns c with zero fields filled.
func (c Config) WithDefaults() Config {
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.WriterDepth == 0 {
		c.WriterDepth = DefaultWriterDepth
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.AcceptTimeout == 0 {
		c.AcceptTimeout = DefaultAcceptTimeout
	}
	return c
}

// Stats counts one peer's wire traffic. Frames and bytes include
// control frames; Msgs counts data messages only, so MsgsSent on one
// node equals MsgsRecv on its peer when both have shut down cleanly.
type Stats struct {
	FramesSent, FramesRecv uint64
	MsgsSent, MsgsRecv     uint64
	BytesSent, BytesRecv   uint64
}

// readBufSize is the Recv side's buffered-reader size: one socket read
// delivers every frame the kernel has queued (up to this many bytes)
// instead of two reads — length prefix, payload — per frame.
const readBufSize = 64 << 10

// Peer is one end of a message-plane connection: a writer goroutine
// draining a frame channel into the socket, and a Recv method the
// owner's single reader goroutine calls. Frames are pooled — Get one,
// fill it, TrySend/Send it; ownership passes to the writer, which
// recycles it after the bytes are out.
type Peer struct {
	conn net.Conn
	cfg  Config
	out  chan *Frame
	pool sync.Pool

	wbuf []byte        // writer-owned encode buffer: every frame of one Write, each length-prefixed
	br   *bufio.Reader // Recv-owned, over the socket-polling reader (see newConnReader)
	rbuf []byte        // Recv-owned decode buffer

	goodbye chan struct{}
	gbOnce  sync.Once
	wg      sync.WaitGroup

	framesSent, msgsSent, bytesSent atomic.Uint64
	framesRecv, msgsRecv, bytesRecv atomic.Uint64
}

// NewPeer wraps an established, handshaken connection and starts its
// writer goroutine.
func NewPeer(conn net.Conn, cfg Config) *Peer {
	cfg.Validate()
	cfg = cfg.WithDefaults()
	p := &Peer{
		conn:    conn,
		cfg:     cfg,
		out:     make(chan *Frame, cfg.WriterDepth),
		goodbye: make(chan struct{}),
		wbuf:    make([]byte, 0, wirePrefixSize+cfg.MaxFrame),
		br:      bufio.NewReaderSize(newConnReader(conn), readBufSize),
	}
	p.pool.New = func() interface{} { return new(Frame) }
	p.wg.Add(1)
	go p.writeLoop()
	return p
}

// MaxFrame is the effective coalescing cap (defaults applied).
func (p *Peer) MaxFrame() int { return p.cfg.MaxFrame }

// Get returns an empty pooled frame for filling.
//
//orthrus:hotpath
func (p *Peer) Get() *Frame {
	f := p.pool.Get().(*Frame)
	f.Reset()
	return f
}

// TrySend hands a filled frame to the writer without blocking. On
// success ownership passes to the writer (which recycles the frame);
// on false the caller still owns it and retries later — the message
// plane's backpressure point.
//
//orthrus:hotpath
func (p *Peer) TrySend(f *Frame) bool {
	// Count before the handoff: the instant the frame is on the channel
	// the writer owns it and may recycle it.
	n := uint64(len(f.Msgs))
	select {
	case p.out <- f:
		p.framesSent.Add(1)
		p.msgsSent.Add(n)
		return true
	default:
		return false
	}
}

// Send hands a filled frame to the writer, blocking until the queue
// has room. Shutdown-path only (pending-frame drain, goodbye); hot
// threads use TrySend.
func (p *Peer) Send(f *Frame) {
	n := uint64(len(f.Msgs))
	p.out <- f
	p.framesSent.Add(1)
	p.msgsSent.Add(n)
}

// SendGoodbye enqueues the shutdown barrier frame. Every data frame
// handed to the writer before this call is written before it (the
// writer preserves channel order).
func (p *Peer) SendGoodbye() {
	f := p.Get()
	f.Plane = PlaneControl
	f.To = CtrlGoodbye
	p.Send(f)
}

// CloseSend closes the writer queue and waits for the writer to flush
// every queued frame to the socket.
func (p *Peer) CloseSend() {
	close(p.out)
	p.wg.Wait()
}

// GoodbyeReceived is closed once Recv has decoded the peer's goodbye
// frame: the peer's complete send history is then in this process
// (socket-buffered or already dispatched).
func (p *Peer) GoodbyeReceived() <-chan struct{} { return p.goodbye }

// Close closes the underlying connection (unblocking a Recv in
// progress). Call after CloseSend and the goodbye exchange.
func (p *Peer) Close() error { return p.conn.Close() }

// Stats snapshots the peer's wire counters.
func (p *Peer) Stats() Stats {
	return Stats{
		FramesSent: p.framesSent.Load(),
		FramesRecv: p.framesRecv.Load(),
		MsgsSent:   p.msgsSent.Load(),
		MsgsRecv:   p.msgsRecv.Load(),
		BytesSent:  p.bytesSent.Load(),
		BytesRecv:  p.bytesRecv.Load(),
	}
}

// Recv reads and decodes one frame into f, reusing f's capacity and
// the peer's read buffers. It blocks until a frame is complete: while
// the connection is busy the wait polls the socket (see newConnReader),
// only an idle one parks in the netpoller. Control frames are handled
// internally (goodbye closes GoodbyeReceived) and returned to the
// caller, which skips them. Only the owner's single reader goroutine may
// call Recv.
//
// The loop this runs in is I/O by design and must never be reachable
// from a hot-path root; the per-node reader goroutines that call it
// are //orthrus:coldpath boundaries.
func (p *Peer) Recv(f *Frame) error {
	payload, err := readWire(p.br, &p.rbuf)
	if err != nil {
		return err
	}
	if err := DecodeFrame(f, payload); err != nil {
		return err
	}
	p.framesRecv.Add(1)
	p.bytesRecv.Add(uint64(wirePrefixSize + len(payload)))
	if f.Plane == PlaneControl {
		if f.To == CtrlGoodbye {
			p.gbOnce.Do(func() { close(p.goodbye) })
		}
		return nil
	}
	p.msgsRecv.Add(uint64(len(f.Msgs)))
	return nil
}

// writeLoop drains the frame channel into the socket: every frame already
// queued when the writer gets to run is encoded, each behind its own
// length prefix, into the writer's one reusable buffer and leaves in a
// single Write — frames queued during the previous syscall share the
// next one. Channel order is write order, so per-queue FIFO is
// unchanged. A batch stops growing once it reaches MaxFrame bytes, which
// bounds the buffer at MaxFrame plus one frame. After a write error it
// keeps draining (discarding) so senders never block on a dead
// connection.
//
//orthrus:coldpath dedicated per-peer writer: socket writes block by design; hot threads hand frames over p.out and never touch the socket
func (p *Peer) writeLoop() {
	defer p.wg.Done()
	failed := false
	for f := range p.out {
		p.wbuf = p.appendWire(p.wbuf[:0], f)
	coalesce:
		for len(p.wbuf) < p.cfg.MaxFrame {
			select {
			case f, ok := <-p.out:
				if !ok {
					break coalesce // closed and drained: the range ends after this Write
				}
				p.wbuf = p.appendWire(p.wbuf, f)
			default:
				break coalesce
			}
		}
		if failed {
			continue
		}
		if _, err := p.conn.Write(p.wbuf); err != nil {
			failed = true
		} else {
			p.bytesSent.Add(uint64(len(p.wbuf)))
		}
	}
}

// appendWire appends f's wire form — length prefix, then payload — to
// dst and recycles f.
//
//orthrus:recycle the frame was handed to the writer by TrySend/Send, transferring sole ownership; once its bytes are encoded no other goroutine can reach it
func (p *Peer) appendWire(dst []byte, f *Frame) []byte {
	at := len(dst)
	dst = AppendFrame(append(dst, 0, 0, 0, 0), f)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-wirePrefixSize))
	p.pool.Put(f)
	return dst
}

// readWire reads one length-prefixed frame payload from r into *buf
// (grown only when capacity is insufficient, so steady state reads
// allocate nothing) and returns the payload slice.
func readWire(r io.Reader, buf *[]byte) ([]byte, error) {
	b := *buf
	if cap(b) < wirePrefixSize {
		b = make([]byte, 0, wirePrefixSize+DefaultMaxFrame)
	}
	b = b[:wirePrefixSize]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxWirePayload {
		return nil, fmt.Errorf("transport: frame length %d exceeds wire cap %d", n, maxWirePayload)
	}
	if cap(b) < int(n) {
		b = make([]byte, n)
	}
	b = b[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	*buf = b
	return b, nil
}

// --- handshake ------------------------------------------------------------

// Node roles in the two-node split.
const (
	RoleCC   uint8 = 1
	RoleExec uint8 = 2
)

// Hello is the handshake each side sends before any data frame. It
// carries the topology and the epoch-versioned routing table, so both
// processes provably start from the same cluster metadata: the engine
// verifies the peer's thread counts, logical-partition count, epoch
// and owner table match its own before any message crosses the wire.
type Hello struct {
	Role                   uint8
	CCThreads, ExecThreads uint16
	LogicalPartitions      uint16
	Epoch                  uint64
	Routing                []uint16 // logical partition -> owning CC thread
}

const (
	helloMagic   uint32 = 0x4F525448 // "ORTH"
	helloVersion uint16 = 1
)

var (
	errBadMagic   = errors.New("transport: handshake magic mismatch (peer is not an orthrus transport)")
	errBadVersion = errors.New("transport: handshake version mismatch")
)

func appendHello(dst []byte, h *Hello) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, helloMagic)
	dst = binary.LittleEndian.AppendUint16(dst, helloVersion)
	dst = append(dst, h.Role)
	dst = binary.LittleEndian.AppendUint16(dst, h.CCThreads)
	dst = binary.LittleEndian.AppendUint16(dst, h.ExecThreads)
	dst = binary.LittleEndian.AppendUint16(dst, h.LogicalPartitions)
	dst = binary.LittleEndian.AppendUint64(dst, h.Epoch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Routing)))
	for _, v := range h.Routing {
		dst = binary.LittleEndian.AppendUint16(dst, v)
	}
	return dst
}

const helloHeaderSize = 4 + 2 + 1 + 2 + 2 + 2 + 8 + 2

func decodeHello(b []byte, h *Hello) error {
	if len(b) < helloHeaderSize {
		return errTruncated
	}
	if binary.LittleEndian.Uint32(b) != helloMagic {
		return errBadMagic
	}
	if binary.LittleEndian.Uint16(b[4:]) != helloVersion {
		return errBadVersion
	}
	h.Role = b[6]
	h.CCThreads = binary.LittleEndian.Uint16(b[7:])
	h.ExecThreads = binary.LittleEndian.Uint16(b[9:])
	h.LogicalPartitions = binary.LittleEndian.Uint16(b[11:])
	h.Epoch = binary.LittleEndian.Uint64(b[13:])
	n := int(binary.LittleEndian.Uint16(b[21:]))
	b = b[helloHeaderSize:]
	if len(b) != n*2 {
		return errTruncated
	}
	h.Routing = h.Routing[:0]
	for i := 0; i < n; i++ {
		h.Routing = append(h.Routing, binary.LittleEndian.Uint16(b[2*i:]))
	}
	return nil
}

// Exchange performs the symmetric handshake on a fresh connection:
// write the local Hello, read the peer's, both under the deadline.
// Semantic verification (counts, roles, routing equality) is the
// caller's job — Exchange only moves and frames the bytes.
func Exchange(conn net.Conn, local *Hello, timeout time.Duration) (Hello, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return Hello{}, err
	}
	payload := appendHello(nil, local)
	msg := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	msg = append(msg, payload...)
	if _, err := conn.Write(msg); err != nil {
		return Hello{}, err
	}
	var buf []byte
	peerBytes, err := readWire(conn, &buf)
	if err != nil {
		return Hello{}, err
	}
	var peer Hello
	if err := decodeHello(peerBytes, &peer); err != nil {
		return Hello{}, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return Hello{}, err
	}
	return peer, nil
}

// --- connection establishment ---------------------------------------------

// Dial connects to the peer's listening address, retrying until the
// timeout expires so the two processes may start in either order.
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("transport: dial %s: timed out after %v: %w", addr, timeout, lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
}

// Accept waits for the peer to connect, bounded by the timeout when
// the listener supports deadlines.
func Accept(ln net.Listener, timeout time.Duration) (net.Conn, error) {
	if timeout <= 0 {
		timeout = DefaultAcceptTimeout
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		if err := tl.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer tl.SetDeadline(time.Time{})
	}
	return ln.Accept()
}
