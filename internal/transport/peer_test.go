package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
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
	// The kernel completes a loopback handshake into the listen backlog,
	// so Dial returns before Accept is called and no helper goroutine
	// outlives the pair.
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	a = NewPeer(accepted, cfg)
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
		m.Owner = 1
		h := m.AddHop(0)
		h.Ops = append(h.Ops, txn.Op{Table: 0, Key: uint64(2 * i), Mode: txn.Write})
		h.Ops = append(h.Ops, txn.Op{Table: 0, Key: uint64(2*i + 1), Mode: txn.Write})
	}
}

// goroutines returns every live goroutine's stack, keyed by goroutine
// id. Ids are never reused, so a goroutine of an earlier test that is
// still exiting appears in a before snapshot or in none, never as new.
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

// TestPeerSendRecvAndGoodbye walks a full peer lifecycle: data frames
// arrive intact and in order, the goodbye barrier fires, counters are
// exactly symmetric, and the blocking driver starts no goroutine.
func TestPeerSendRecvAndGoodbye(t *testing.T) {
	before := goroutines()
	a, b := newPeerPair(t, Config{})
	for id, g := range goroutines() {
		if before[id] == "" {
			t.Fatalf("two peers started a goroutine, want 0:\n%s", g)
		}
	}
	const frames, batch = 17, 8
	want := AppendFrame(nil, func() *Frame { f := &Frame{}; fillAcquireBatch(f, batch); return f }())

	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < frames; i++ {
			f := a.Get()
			fillAcquireBatch(f, batch)
			a.Send(f)
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
			if !b.GoodbyeSeen() {
				t.Fatal("goodbye frame decoded but GoodbyeSeen not set")
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

	// Stats is read when the side that writes it is quiet.
	<-sent
	as, bs := a.Stats(), b.Stats()
	if as.FramesSent != frames+1 || as.MessagesSent != frames*batch {
		t.Fatalf("sender stats %+v", as)
	}
	if bs.FramesReceived != as.FramesSent || bs.MessagesReceived != as.MessagesSent || bs.BytesReceived != as.BytesSent {
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
	ccHello := &Hello{Role: RoleCC, CCThreads: 2, ExecThreads: 3}
	exHello := &Hello{Role: RoleExec, CCThreads: 2, ExecThreads: 3}
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
	if got.CCThreads != 2 || got.ExecThreads != 3 {
		t.Fatalf("thread counts did not survive the exchange: %+v", got)
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
		a.Send(f)
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
// being a syscall.Conn — one that takes Peer's deadline-polled path, where
// os.ErrDeadlineExceeded is the socket's EAGAIN. Write takes at most the
// next entry of accept bytes (0: none) and everything once the script runs
// out, logging what each call took; Read serves stream in the chunk sizes
// given (0: nothing yet), then whatever is left, then io.EOF.
type scriptConn struct {
	accept []int
	writes [][]byte

	stream []byte
	chunks []int
}

func (c *scriptConn) Write(b []byte) (int, error) {
	n := len(b)
	if len(c.accept) > 0 {
		n, c.accept = min(n, c.accept[0]), c.accept[1:]
	}
	c.writes = append(c.writes, append([]byte(nil), b[:n]...))
	if n < len(b) {
		return n, os.ErrDeadlineExceeded
	}
	return n, nil
}

func (c *scriptConn) Read(b []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := len(c.stream)
	if len(c.chunks) > 0 {
		n, c.chunks = min(n, c.chunks[0]), c.chunks[1:]
	}
	if n == 0 {
		return 0, os.ErrDeadlineExceeded
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

// TestWriterCoalescesReaderReframes pins both halves of the non-blocking
// core, and that the blocking driver is the same core. Writer: every
// frame appended since the last Flush leaves in one Write, each behind its
// own length prefix, in Append order; a socket that takes nothing (EAGAIN)
// reports no progress and one that takes k bytes keeps the tail — even a
// tail that starts inside a length prefix — and frames appended meanwhile
// go behind it. Reader: that byte stream, arriving in reads that split
// length prefixes and payloads at arbitrary points with empty reads in
// between, decodes frame for frame identical — including a frame larger
// than the read buffer — through Fill/Next and through Recv alike.
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

	// Writer side. Frames 0..5 are appended before the first Flush; the
	// oversized one takes the buffer past MaxFrame, where an owner stops
	// appending. The socket then takes nothing, then 3 bytes (inside
	// frame 0's length prefix), then — frame 6 having gone behind the
	// tail — 100 more, then the rest.
	wc := &scriptConn{accept: []int{0, 3, 100}}
	sender := NewPeer(wc, Config{})
	appendFrame := func(i int) {
		f := sender.Get()
		build[i](f)
		sender.Append(f)
	}
	for i := 0; i <= 5; i++ {
		if sender.Buffered() >= sender.MaxFrame() {
			t.Fatalf("buffer passed MaxFrame before the oversized frame %d", i)
		}
		appendFrame(i)
	}
	if sender.Buffered() < sender.MaxFrame() {
		t.Fatal("the oversized frame did not take the buffer past MaxFrame")
	}
	flush := func(wantProgress bool, wantLeft int) {
		t.Helper()
		progress, err := sender.Flush()
		if err != nil || progress != wantProgress || sender.Buffered() != wantLeft {
			t.Fatalf("Flush: progress=%v err=%v buffered=%d, want progress=%v buffered=%d",
				progress, err, sender.Buffered(), wantProgress, wantLeft)
		}
	}
	queued := len(stream) - wirePrefixSize - len(want[6])
	flush(false, queued)
	flush(true, queued-3)
	appendFrame(6)
	flush(true, len(stream)-103)
	flush(true, 0)
	flush(false, 0) // nothing buffered: no Write at all
	var wrote []byte
	for _, w := range wc.writes {
		wrote = append(wrote, w...)
	}
	if !bytes.Equal(wrote, stream) {
		t.Fatal("the writes are not the frames' length-prefixed encodings in Append order")
	}
	st := sender.Stats()
	if st.FramesSent != uint64(len(build)) || st.BytesSent != uint64(len(stream)) || st.Writes != 4 || st.ShortWrites != 3 {
		t.Fatalf("sender stats %+v, want %d frames / %d bytes in 4 writes, 3 of them short", st, len(build), len(stream))
	}

	// Reader side: the first reads split frame 0's length prefix, then
	// its payload; later ones land mid-frame wherever they fall.
	chunks := []int{3, 0, 1, 5, 0, 0, 64, 1000, 3, 70000, 0, 11}
	check := func(name string, recv func(p *Peer, f *Frame) error) {
		p := NewPeer(&scriptConn{stream: stream, chunks: append([]int(nil), chunks...)}, Config{})
		var f Frame
		for i := range want {
			if err := recv(p, &f); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if got := AppendFrame(nil, &f); !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: frame %d differs (%d bytes, want %d)", name, i, len(got), len(want[i]))
			}
		}
		if err := recv(p, &f); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
		st := p.Stats()
		if st.FramesReceived != uint64(len(want)) || st.BytesReceived != uint64(len(stream)) || st.EmptyReads < 4 {
			t.Fatalf("%s: stats %+v, want %d frames / %d bytes and the 4 scripted empty reads", name, st, len(want), len(stream))
		}
	}
	check("Fill/Next", func(p *Peer, f *Frame) error {
		for {
			if ok, err := p.Next(f); ok || err != nil {
				return err
			}
			before := p.Stats().BytesReceived
			n, err := p.Fill()
			if err != nil {
				return err
			}
			if uint64(n) != p.Stats().BytesReceived-before {
				t.Fatalf("Fill returned %d, counted %d", n, p.Stats().BytesReceived-before)
			}
		}
	})
	check("Recv", (*Peer).Recv)
}
