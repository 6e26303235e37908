package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/txn"
)

// newPeerPair builds two handshaken peers over a real loopback TCP
// connection (not net.Pipe: the tests must cover the same kernel socket
// path production uses).
func newPeerPair(t testing.TB, cfg Config) (a, b *Peer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		accepted <- c
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a = NewPeer(<-accepted, cfg)
	b = NewPeer(dialed, cfg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

// fillAcquireBatch fills f with n two-op acquire messages, the shape a
// steady-state exec-node flush produces.
func fillAcquireBatch(f *Frame, n int) {
	f.Plane = PlaneExecCC
	f.From, f.To = 1, 0
	for i := 0; i < n; i++ {
		m := f.AddMsg()
		m.Kind = KindAcquire
		m.TxnID = uint64(i) + 1
		m.Owner, m.HopIdx, m.Epoch = 1, 0, 1
		h := m.AddHop(0)
		h.Ops = append(h.Ops, txn.Op{Table: 0, Key: uint64(2 * i), Mode: txn.Write})
		h.Ops = append(h.Ops, txn.Op{Table: 0, Key: uint64(2*i + 1), Mode: txn.Write})
	}
}

// TestPeerSendRecvAndGoodbye walks a full peer lifecycle: data frames
// arrive intact and in order, the goodbye barrier fires, counters are
// exactly symmetric, and shutdown completes without leaking goroutines.
func TestPeerSendRecvAndGoodbye(t *testing.T) {
	a, b := newPeerPair(t, Config{})
	const frames, batch = 17, 8
	want := AppendFrame(nil, func() *Frame { f := &Frame{}; fillAcquireBatch(f, batch); return f }())

	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < frames; i++ {
			f := a.Get()
			fillAcquireBatch(f, batch)
			for !a.TrySend(f) {
				runtime.Gosched()
			}
		}
		a.SendGoodbye()
		a.CloseSend()
	}()

	var f Frame
	got := 0
	for {
		if err := b.Recv(&f); err != nil {
			t.Fatalf("recv after %d frames: %v", got, err)
		}
		if f.Plane == PlaneControl {
			select {
			case <-b.GoodbyeReceived():
			default:
				t.Fatal("goodbye frame decoded but GoodbyeReceived not closed")
			}
			break
		}
		if enc := AppendFrame(nil, &f); string(enc) != string(want) {
			t.Fatalf("frame %d corrupted in flight", got)
		}
		got++
	}
	if got != frames {
		t.Fatalf("received %d data frames, want %d", got, frames)
	}

	// The writer counts bytes after its Write returns, and the polling
	// reader can have decoded them by then: read the sender's counters
	// only once its writer has exited.
	<-sent
	as, bs := a.Stats(), b.Stats()
	if as.FramesSent != frames+1 || as.MsgsSent != frames*batch {
		t.Fatalf("sender stats %+v", as)
	}
	if bs.FramesRecv != as.FramesSent || bs.MsgsRecv != as.MsgsSent || bs.BytesRecv != as.BytesSent {
		t.Fatalf("counter conservation violated: sent %+v recv %+v", as, bs)
	}
	if as.BytesSent == 0 {
		t.Fatal("writer reported no bytes")
	}
}

// TestPeerExchange verifies the handshake against a live socket pair,
// including the routing payload and the deadline reset afterwards.
func TestPeerExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		h   Hello
		err error
	}
	ccHello := &Hello{Role: RoleCC, CCThreads: 2, ExecThreads: 3, LogicalPartitions: 8,
		Epoch: 1, Routing: []uint16{0, 1, 0, 1, 0, 1, 0, 1}}
	exHello := &Hello{Role: RoleExec, CCThreads: 2, ExecThreads: 3, LogicalPartitions: 8,
		Epoch: 1, Routing: []uint16{0, 1, 0, 1, 0, 1, 0, 1}}
	ccSide := make(chan res, 1)
	go func() {
		conn, err := Accept(ln, time.Second)
		if err != nil {
			ccSide <- res{err: err}
			return
		}
		defer conn.Close()
		h, err := Exchange(conn, ccHello, time.Second)
		ccSide <- res{h, err}
	}()
	conn, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := Exchange(conn, exHello, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cc := <-ccSide
	if cc.err != nil {
		t.Fatal(cc.err)
	}
	if got.Role != RoleCC || cc.h.Role != RoleExec {
		t.Fatalf("roles did not cross: exec saw %d, cc saw %d", got.Role, cc.h.Role)
	}
	if len(got.Routing) != 8 || got.Routing[1] != 1 {
		t.Fatalf("routing table did not survive the exchange: %v", got.Routing)
	}
}

// TestSteadyStateZeroAlloc pins the PR's headline property: once warm,
// a full send→wire→receive round trip of a batched frame allocates
// nothing on either side — no per-frame buffers, no per-message boxing,
// no decoder garbage.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	a, b := newPeerPair(t, Config{})
	var rf Frame
	roundTrip := func() {
		f := a.Get()
		fillAcquireBatch(f, 8)
		for !a.TrySend(f) {
			runtime.Gosched()
		}
		for {
			if err := b.Recv(&rf); err != nil {
				t.Fatalf("recv: %v", err)
			}
			if rf.Plane != PlaneControl {
				break
			}
		}
	}
	// Warm every pool, scratch buffer and socket path to its high-water
	// mark, then empty sync.Pool victim caches so a GC during the
	// measured runs cannot manufacture refill allocations.
	for i := 0; i < 256; i++ {
		roundTrip()
	}
	runtime.GC()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("steady-state round trip allocates %v objects/op, want 0", allocs)
	}
}

// scriptConn is a net.Conn the test scripts from both ends, and — not
// being a syscall.Conn — one that takes Peer's plain-reader fallback:
// Write logs each call's bytes (the first call blocks until gate closes,
// so the test can queue frames behind a writer that is mid-syscall), and
// Read serves stream in the chunk sizes given, then whatever is left.
type scriptConn struct {
	mu      sync.Mutex
	writes  [][]byte
	entered chan struct{} // closed when the first Write is entered
	gate    chan struct{} // the first Write returns once this closes

	stream []byte
	chunks []int
}

func (c *scriptConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	first := len(c.writes) == 0
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	if first && c.gate != nil {
		close(c.entered)
		<-c.gate
	}
	return len(b), nil
}

func (c *scriptConn) Read(b []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := len(c.stream)
	if len(c.chunks) > 0 {
		n, c.chunks = min(n, c.chunks[0]), c.chunks[1:]
	}
	n = copy(b, c.stream[:n])
	c.stream = c.stream[n:]
	return n, nil
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriterCoalescesReaderReframes pins both halves of the batched
// socket path. Writer: frames queued while a Write is in flight leave in
// the next single Write, each behind its own length prefix, in send
// order, and a batch stops growing once it passes MaxFrame. Reader: that
// byte stream, delivered through the buffered reader in reads that split
// length prefixes and payloads at arbitrary points, decodes frame for
// frame identical — including a frame larger than the read buffer.
func TestWriterCoalescesReaderReframes(t *testing.T) {
	build := []func(f *Frame){
		func(f *Frame) { fillAcquireBatch(f, 1) },
		func(f *Frame) { fillAcquireBatch(f, 8) },
		func(f *Frame) {
			f.Plane, f.From, f.To = PlaneCCExec, 0, 1
			m := f.AddMsg()
			m.Kind, m.TxnID = KindGrant, 42
		},
		func(f *Frame) { fillAcquireBatch(f, 3) },
		func(f *Frame) { f.Plane = PlaneExecCC; m := f.AddMsg(); m.Kind, m.TxnID = KindRelease, 7 },
		func(f *Frame) { // oversized: one acquire whose single hop outgrows MaxFrame and the read buffer
			f.Plane = PlaneExecCC
			m := f.AddMsg()
			m.Kind, m.TxnID = KindAcquire, 99
			h := m.AddHop(1)
			for k := 0; k < 6000; k++ {
				h.Ops = append(h.Ops, txn.Op{Table: 1, Key: uint64(k), Mode: txn.Read})
			}
		},
		func(f *Frame) { fillAcquireBatch(f, 2) },
	}
	var want [][]byte // each frame's encoded payload
	var stream []byte // what must reach the socket
	for _, fill := range build {
		var f Frame
		fill(&f)
		enc := AppendFrame(nil, &f)
		want = append(want, enc)
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(enc)))
		stream = append(stream, enc...)
	}
	if over := len(want[5]); over <= DefaultMaxFrame || over <= readBufSize {
		t.Fatalf("oversized frame is only %d bytes", over)
	}

	// Writer side: frame 0 goes out alone and holds the writer inside
	// Write; frames 1..6 queue up behind it.
	wc := &scriptConn{entered: make(chan struct{}), gate: make(chan struct{})}
	sender := NewPeer(wc, Config{})
	send := func(i int) {
		f := sender.Get()
		build[i](f)
		if !sender.TrySend(f) {
			t.Fatalf("TrySend refused frame %d on an empty writer queue", i)
		}
	}
	send(0)
	<-wc.entered
	for i := 1; i < len(build); i++ {
		send(i)
	}
	close(wc.gate)
	sender.CloseSend()

	// Write 1: frame 0. Write 2: frames 1..5 — the batch stops once the
	// oversized frame takes it past MaxFrame. Write 3: frame 6.
	wantWrites := []int{wirePrefixSize + len(want[0]), 0, wirePrefixSize + len(want[6])}
	wantWrites[1] = len(stream) - wantWrites[0] - wantWrites[2]
	if len(wc.writes) != len(wantWrites) {
		t.Fatalf("%d frames left in %d Writes, want %d", len(build), len(wc.writes), len(wantWrites))
	}
	var wrote []byte
	for i, w := range wc.writes {
		if len(w) != wantWrites[i] {
			t.Fatalf("Write %d carried %d bytes, want %d", i, len(w), wantWrites[i])
		}
		wrote = append(wrote, w...)
	}
	if !bytes.Equal(wrote, stream) {
		t.Fatal("coalesced writes are not the frames' length-prefixed encodings in send order")
	}
	if st := sender.Stats(); st.FramesSent != uint64(len(build)) || st.BytesSent != uint64(len(stream)) {
		t.Fatalf("sender stats %+v, want %d frames / %d bytes", st, len(build), len(stream))
	}

	// Reader side: the first reads split frame 0's length prefix, then
	// its payload; later ones land mid-frame wherever they fall.
	rc := &scriptConn{stream: stream, chunks: []int{3, 1, 5, 64, 1000, 3, 70000, 11}}
	receiver := NewPeer(rc, Config{})
	defer receiver.CloseSend()
	var f Frame
	for i := range want {
		if err := receiver.Recv(&f); err != nil {
			t.Fatalf("recv frame %d: %v", i, err)
		}
		if got := AppendFrame(nil, &f); !bytes.Equal(got, want[i]) {
			t.Fatalf("frame %d differs after the buffered reader (%d bytes, want %d)", i, len(got), len(want[i]))
		}
	}
	if err := receiver.Recv(&f); err != io.EOF {
		t.Fatalf("recv after the last frame: %v, want io.EOF", err)
	}
	if st := receiver.Stats(); st.FramesRecv != uint64(len(want)) || st.BytesRecv != uint64(len(stream)) {
		t.Fatalf("receiver stats %+v, want %d frames / %d bytes", st, len(want), len(stream))
	}
}
