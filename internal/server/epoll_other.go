//go:build !linux

package server

import (
	"errors"
	"net"
)

// epollLoop is Linux-only; elsewhere every connection uses the
// per-connection goroutine pumps and the shard is a bookkeeping unit.
type epollLoop struct{}

func newEpollLoop(sh *ingestShard) (*epollLoop, error) {
	return nil, errors.New("no shard event loop on this platform")
}

func (l *epollLoop) wake() {}

// readPending has no socket fd to read off Linux: Shutdown's interrupt
// ends a goroutine pump's stream at once.
func readPending(net.Conn, []byte) int { return 0 }

// tryEventLoopHandoff never takes ownership off Linux.
func (s *Server) tryEventLoopHandoff(c *ingestConn) bool { return false }
