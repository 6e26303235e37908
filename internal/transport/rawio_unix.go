//go:build unix

package transport

import (
	"io"
	"net"
	"syscall"
)

// rawIO reads and writes a connection's descriptor directly, through
// syscall.RawConn. Go keeps every socket non-blocking, so a call either
// moves bytes or fails with EAGAIN at once — what a Peer's owner wants
// when it polls the socket from a loop with other work in it: Go's
// scheduler consults the netpoller only when a P has nothing runnable, so
// a goroutine parked in conn.Read behind spinning neighbours wakes a
// scheduler slice late. With wait set an EAGAIN parks the caller in the
// netpoller until the descriptor is ready, then retries (the blocking
// driver).
type rawIO struct {
	rc syscall.RawConn

	// One in-flight call's arguments and results per direction, passed
	// to the RawConn callbacks through the struct: the callbacks are
	// bound once, so a call allocates no closure.
	rp, wp       []byte
	rwait, wwait bool
	rn, wn       int
	rerr, werr   error
	doRead       func(fd uintptr) bool
	doWrite      func(fd uintptr) bool
}

// newRawIO returns nil when conn exposes no descriptor.
func newRawIO(conn net.Conn) *rawIO {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	r := &rawIO{rc: rc}
	r.doRead = func(fd uintptr) bool {
		r.rn, r.rerr = syscall.Read(int(fd), r.rp)
		return !r.rwait || r.rerr != syscall.EAGAIN
	}
	r.doWrite = func(fd uintptr) bool {
		r.wn, r.werr = syscall.Write(int(fd), r.wp)
		return !r.wwait || r.werr != syscall.EAGAIN
	}
	return r
}

// read returns (0, nil) when the socket had nothing (or the call was
// interrupted) and io.EOF once the peer has closed.
func (r *rawIO) read(p []byte, wait bool) (int, error) {
	r.rp, r.rwait = p, wait
	if err := r.rc.Read(r.doRead); err != nil {
		return 0, err // closed under the caller
	}
	if r.rn == 0 && r.rerr == nil {
		return 0, io.EOF
	}
	return result(r.rn, r.rerr)
}

// write returns how many bytes the socket took: fewer than len(p), with
// a nil error, when its buffer filled.
func (r *rawIO) write(p []byte, wait bool) (int, error) {
	r.wp, r.wwait = p, wait
	if err := r.rc.Write(r.doWrite); err != nil {
		return 0, err
	}
	return result(r.wn, r.werr)
}

// result maps "try again" to no bytes and no error.
func result(n int, err error) (int, error) {
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return 0, nil
	}
	return max(n, 0), err
}
