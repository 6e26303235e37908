//go:build !unix

package transport

import (
	"io"
	"net"
)

// newConnReader returns the reader Peer.Recv buffers. Without a unix
// descriptor to poll, that is the blocking conn itself.
func newConnReader(conn net.Conn) io.Reader { return conn }
