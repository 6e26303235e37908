//go:build unix

package transport

import (
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"
)

// readIdleBudget is how long after the last byte arrived the reader
// keeps polling the socket before it parks in the netpoller. It must
// outlast the gap between frames of a loaded connection: Go's scheduler
// consults the netpoller only when a P runs out of runnable goroutines,
// so while any neighbour — an engine thread in engine.IdleWaiter's
// yield phase, a caller spinning toward a deadline — keeps the run
// queues non-empty, a netpoller-parked reader is not woken, and every
// hop pays a scheduler slice instead of a socket read. A reader that
// stays in the yield rotation costs one EAGAIN read per turn and sees
// the frame on its next one. Two milliseconds: four times IdleWaiter's
// 500µs yield phase, so the reader outlasts every engine thread it
// feeds, and short enough that an idle connection stops costing CPU
// almost at once.
const readIdleBudget = 2 * time.Millisecond

// newConnReader returns the reader Peer.Recv buffers: one that polls
// the socket while the connection is busy when conn exposes its
// descriptor, the plain blocking conn otherwise (net.Pipe in tests).
func newConnReader(conn net.Conn) io.Reader {
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			r := &pollReader{rc: rc, last: time.Now()}
			r.try, r.wait = r.tryRead, r.waitRead
			return r
		}
	}
	return conn
}

// pollReader reads a non-blocking socket without parking while the
// connection has been busy within readIdleBudget. One goroutine only.
type pollReader struct {
	rc   syscall.RawConn
	last time.Time // when bytes last arrived

	// The in-flight Read's arguments and results, passed to the RawConn
	// callbacks through the struct: try and wait are bound once, so a
	// Read allocates no closure.
	p         []byte
	n         int
	err       error
	try, wait func(fd uintptr) bool
}

// tryRead attempts one read and never asks RawConn to wait.
func (r *pollReader) tryRead(fd uintptr) bool {
	r.n, r.err = syscall.Read(int(fd), r.p)
	return true
}

// waitRead attempts one read and, when nothing is there, has RawConn
// park the goroutine in the netpoller until the socket is readable.
func (r *pollReader) waitRead(fd uintptr) bool {
	r.n, r.err = syscall.Read(int(fd), r.p)
	return r.err != syscall.EAGAIN
}

func (r *pollReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.p = p
	for {
		if err := r.rc.Read(r.try); err != nil {
			return 0, err // connection closed under the reader
		}
		if r.err == syscall.EAGAIN && time.Since(r.last) >= readIdleBudget {
			if err := r.parkedRead(); err != nil {
				return 0, err
			}
		}
		switch {
		case r.err == syscall.EAGAIN:
			runtime.Gosched() // stay in the yield rotation; the frame is a turn away
		case r.err == syscall.EINTR:
		case r.err != nil:
			return 0, os.NewSyscallError("read", r.err)
		case r.n == 0:
			return 0, io.EOF
		default:
			r.last = time.Now()
			return r.n, nil
		}
	}
}

// parkedRead is the idle connection's read: blocked in the netpoller
// until bytes (or EOF, or an error) arrive.
//
//orthrus:coldpath netpoller fallback of the socket reader: reached only after the connection was silent for readIdleBudget
func (r *pollReader) parkedRead() error {
	return r.rc.Read(r.wait)
}
