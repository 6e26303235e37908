//go:build !unix

package transport

import "net"

// rawIO is the descriptor-level non-blocking I/O of rawio_unix.go. No
// other platform has one, so every Peer polls through deadlines
// (plainPoll).
type rawIO struct{}

func newRawIO(net.Conn) *rawIO { return nil }

func (*rawIO) read([]byte, bool) (int, error)  { panic("transport: no raw I/O on this platform") }
func (*rawIO) write([]byte, bool) (int, error) { panic("transport: no raw I/O on this platform") }
