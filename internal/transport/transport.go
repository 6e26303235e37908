package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Config are the wire-level knobs of a networked message plane.
type Config struct {
	// MaxFrame caps the encoded payload bytes one frame coalesces
	// (soft: a single message larger than the cap still ships alone,
	// in its own oversized frame), and the bytes a Peer buffers before
	// it stops taking frames until the socket has. 0 means
	// DefaultMaxFrame.
	MaxFrame int
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
	DefaultMaxFrame = 64 << 10
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
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.AcceptTimeout == 0 {
		c.AcceptTimeout = DefaultAcceptTimeout
	}
	return c
}

// Stats counts one peer's wire traffic. Frames and bytes include the
// control frames of the shutdown barrier; Messages counts data messages
// only, so MessagesSent on one node equals MessagesReceived on its peer
// when both have shut down cleanly. Reads and Writes count socket calls:
// EmptyReads found nothing (EAGAIN), ShortWrites left a tail buffered.
type Stats struct {
	FramesSent, FramesReceived     uint64
	MessagesSent, MessagesReceived uint64
	BytesSent, BytesReceived       uint64

	Reads, EmptyReads   uint64
	Writes, ShortWrites uint64
}

// MessagesPerFrame reports the achieved wire batching factor on the
// send side.
func (n Stats) MessagesPerFrame() float64 {
	if n.FramesSent == 0 {
		return 0
	}
	return float64(n.MessagesSent) / float64(n.FramesSent)
}

// readBufSize is the receive buffer's starting size: one socket read
// delivers every frame the kernel has queued, up to this many bytes.
const readBufSize = 64 << 10

// plainPoll bounds one Fill or Flush on a connection with no descriptor
// to poll (net.Pipe, any platform without rawio_unix.go): a deadline this
// far ahead turns the blocking call into a bounded poll.
const plainPoll = 50 * time.Microsecond

// Peer is one end of a message-plane connection. Its core never waits:
// Fill is one non-blocking read into a reusable buffer and Next decodes
// the buffered frames in place; Append encodes a frame behind whatever is
// still unwritten and Flush is one non-blocking write of all of it,
// keeping the tail the socket did not take. The owner decides when to
// call them — the engine's net stepper does, once per step. Send and Recv
// are the blocking driver over that same core, for callers that want a
// frame out or in before they go on.
//
// Frames are pooled: Get one, fill it, Append or Send it; it is recycled
// once encoded. The send side (Append, Flush, Send) and the receive side
// (Fill, Next, Recv) share no state, so one goroutine may own each;
// Stats is read when both are quiet.
type Peer struct {
	conn net.Conn
	raw  *rawIO // the descriptor's non-blocking I/O; nil when conn exposes none
	cfg  Config
	pool sync.Pool

	wbuf []byte // encoded frames, each length-prefixed; wbuf[wpos:] is unwritten
	wpos int

	rbuf       []byte // rbuf[rpos:rend] is read and not yet decoded
	rpos, rend int
	goodbye    bool

	st Stats
}

// NewPeer wraps an established, handshaken connection.
func NewPeer(conn net.Conn, cfg Config) *Peer {
	cfg.Validate()
	cfg = cfg.WithDefaults()
	p := &Peer{
		conn: conn,
		raw:  newRawIO(conn),
		cfg:  cfg,
		wbuf: make([]byte, 0, wirePrefixSize+cfg.MaxFrame),
		rbuf: make([]byte, readBufSize),
	}
	p.pool.New = func() interface{} { return new(Frame) }
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

// Append encodes f — length prefix, then payload — behind the bytes
// still unwritten and recycles it. Frames leave in Append order.
//
//orthrus:recycle the caller hands over sole ownership of a frame it got from Get; once its bytes are encoded nothing else can reach it
func (p *Peer) Append(f *Frame) {
	if p.wpos > 0 { // a short write left a tail: move it to the front
		p.wbuf = p.wbuf[:copy(p.wbuf, p.wbuf[p.wpos:])]
		p.wpos = 0
	}
	at := len(p.wbuf)
	p.wbuf = append(p.wbuf, 0, 0, 0, 0)
	p.wbuf = AppendFrame(p.wbuf, f)
	binary.LittleEndian.PutUint32(p.wbuf[at:], uint32(len(p.wbuf)-at-wirePrefixSize))
	p.st.FramesSent++
	p.st.MessagesSent += uint64(len(f.Msgs))
	p.pool.Put(f)
}

// AppendGoodbye appends the shutdown barrier frame: it leaves after
// every frame appended before it.
func (p *Peer) AppendGoodbye() {
	f := p.Get()
	f.Plane, f.To = PlaneControl, CtrlGoodbye
	p.Append(f)
}

// Buffered is how many encoded bytes the socket has not yet taken. An
// owner stops appending once it passes MaxFrame, which bounds the buffer
// at MaxFrame plus one frame.
func (p *Peer) Buffered() int { return len(p.wbuf) - p.wpos }

// Flush offers every unwritten byte to the socket in one write and
// reports whether it took any. What it did not take (EAGAIN, a short
// write) stays buffered, in order, for the next Flush.
func (p *Peer) Flush() (bool, error) { return p.flush(false) }

func (p *Peer) flush(wait bool) (bool, error) {
	if p.wpos == len(p.wbuf) {
		return false, nil
	}
	var n int
	var err error
	if p.raw != nil {
		n, err = p.raw.write(p.wbuf[p.wpos:], wait)
	} else {
		if !wait {
			p.conn.SetWriteDeadline(time.Now().Add(plainPoll))
		}
		if n, err = p.conn.Write(p.wbuf[p.wpos:]); errors.Is(err, os.ErrDeadlineExceeded) {
			err = nil
		}
	}
	p.st.Writes++
	p.st.BytesSent += uint64(n)
	if p.wpos += n; p.wpos == len(p.wbuf) {
		p.wbuf, p.wpos = p.wbuf[:0], 0
	} else {
		p.st.ShortWrites++
	}
	return n > 0, err
}

// Fill reads once into the buffer's free space and returns how many
// bytes arrived: zero when the socket had none (EAGAIN), io.EOF once the
// peer has closed. Call Next until it reports no frame before the next
// Fill.
func (p *Peer) Fill() (int, error) { return p.fill(false) }

func (p *Peer) fill(wait bool) (int, error) {
	if p.rpos > 0 { // every whole frame is decoded: a partial one moves to the front
		p.rend = copy(p.rbuf, p.rbuf[p.rpos:p.rend])
		p.rpos = 0
	}
	var n int
	var err error
	if p.raw != nil {
		n, err = p.raw.read(p.rbuf[p.rend:], wait)
	} else {
		if !wait {
			p.conn.SetReadDeadline(time.Now().Add(plainPoll))
		}
		if n, err = p.conn.Read(p.rbuf[p.rend:]); errors.Is(err, os.ErrDeadlineExceeded) {
			err = nil
		}
	}
	p.st.Reads++
	if n == 0 {
		p.st.EmptyReads++
	}
	p.rend += n
	p.st.BytesReceived += uint64(n)
	return n, err
}

// Next decodes the next buffered frame into f, in place — f's capacity
// and the read buffer are reused — and reports whether there was a whole
// one. Control frames are returned like any other (a goodbye also sets
// GoodbyeSeen); the caller skips them.
func (p *Peer) Next(f *Frame) (bool, error) {
	b := p.rbuf[p.rpos:p.rend]
	if len(b) < wirePrefixSize {
		return false, nil
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxWirePayload {
		return false, fmt.Errorf("transport: frame length %d exceeds wire cap %d", n, maxWirePayload)
	}
	size := wirePrefixSize + int(n)
	if len(b) < size {
		if size > len(p.rbuf) {
			p.growRead(size)
		}
		return false, nil
	}
	if err := DecodeFrame(f, b[wirePrefixSize:size]); err != nil {
		return false, err
	}
	p.rpos += size
	p.st.FramesReceived++
	if f.Plane == PlaneControl {
		p.goodbye = p.goodbye || f.To == CtrlGoodbye
	} else {
		p.st.MessagesReceived += uint64(len(f.Msgs))
	}
	return true, nil
}

// growRead makes the read buffer hold one frame of size bytes.
//
//orthrus:coldpath runs once per frame that outgrows every earlier one; the buffer then stays that large
func (p *Peer) growRead(size int) {
	b := make([]byte, size)
	p.rend = copy(b, p.rbuf[p.rpos:p.rend])
	p.rbuf, p.rpos = b, 0
}

// GoodbyeSeen reports that Next has decoded the peer's goodbye frame:
// the peer's complete send history has then been returned by Next.
func (p *Peer) GoodbyeSeen() bool { return p.goodbye }

// Close closes the underlying connection.
func (p *Peer) Close() error { return p.conn.Close() }

// Stats returns the peer's wire counters.
func (p *Peer) Stats() Stats { return p.st }

// --- blocking driver --------------------------------------------------------

// Send appends f and waits until the socket has taken every buffered
// byte. After a write error it discards, so a sender never blocks on a
// dead connection.
func (p *Peer) Send(f *Frame) {
	p.Append(f)
	p.drain()
}

// SendGoodbye sends the shutdown barrier frame.
func (p *Peer) SendGoodbye() {
	p.AppendGoodbye()
	p.drain()
}

func (p *Peer) drain() {
	for p.Buffered() > 0 {
		if _, err := p.flush(true); err != nil {
			p.wbuf, p.wpos = p.wbuf[:0], 0
		}
	}
}

// CloseSend ends the send side. Send returns with its bytes written, so
// there is nothing left to wait for.
func (p *Peer) CloseSend() {}

// Recv blocks until one whole frame is decoded into f (see Next).
func (p *Peer) Recv(f *Frame) error {
	for {
		if ok, err := p.Next(f); ok || err != nil {
			return err
		}
		if _, err := p.fill(true); err != nil {
			return err
		}
	}
}

// readWire reads one length-prefixed payload from r (the handshake's
// framing; data frames go through Peer).
func readWire(r io.Reader) ([]byte, error) {
	var prefix [wirePrefixSize]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n > maxWirePayload {
		return nil, fmt.Errorf("transport: frame length %d exceeds wire cap %d", n, maxWirePayload)
	}
	b := make([]byte, n)
	_, err := io.ReadFull(r, b)
	return b, err
}

// --- handshake ------------------------------------------------------------

// Node roles in the two-node split.
const (
	RoleCC   uint8 = 1
	RoleExec uint8 = 2
)

// Hello is the handshake each side sends before any data frame: the
// sender's role and thread counts, which the engine verifies match its
// own before any message crosses the wire.
type Hello struct {
	Role                   uint8
	CCThreads, ExecThreads uint16
}

const (
	helloMagic   uint32 = 0x4F525448 // "ORTH"
	helloVersion uint16 = 2
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
	return binary.LittleEndian.AppendUint16(dst, h.ExecThreads)
}

const helloSize = 4 + 2 + 1 + 2 + 2

func decodeHello(b []byte, h *Hello) error {
	if len(b) < helloSize {
		return errTruncated
	}
	if binary.LittleEndian.Uint32(b) != helloMagic {
		return errBadMagic
	}
	if binary.LittleEndian.Uint16(b[4:]) != helloVersion {
		return errBadVersion
	}
	if len(b) != helloSize {
		return errTrailing
	}
	h.Role = b[6]
	h.CCThreads = binary.LittleEndian.Uint16(b[7:])
	h.ExecThreads = binary.LittleEndian.Uint16(b[9:])
	return nil
}

// Exchange performs the symmetric handshake on a fresh connection:
// write the local Hello, read the peer's, both under the deadline.
// Semantic verification (counts, roles) is the
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
	peerBytes, err := readWire(conn)
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
