//go:build linux

package server

import (
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/pcm"
)

// soReusePort is SO_REUSEPORT, which the linux/amd64 syscall package does
// not export (the value is 15 on every Linux architecture).
const soReusePort = 0xf

// epollWriteTimeout bounds response-line writes issued from a shard loop
// (alarm, error, done). The loop is single-threaded per shard, so an
// unbounded write to a wedged client would stall every connection on the
// shard; past the deadline the connWriter goes sticky-failed and the
// write becomes the same best-effort no-op a dead client already gets.
const epollWriteTimeout = 5 * time.Second

// epollLoop is one shard's event loop: a single goroutine multiplexing
// every epoll-capable connection on the shard over one epoll instance,
// one 256 KiB block-read buffer, and one decode batch. The connections
// are ingestConns; the loop owns them after registration (the handshake
// goroutine hands one off through add and never touches it again).
type epollLoop struct {
	shard *ingestShard
	srv   *Server
	epfd  int
	wakeR int
	wakeW int

	mu      sync.Mutex
	pending []*ingestConn
	stopped bool

	// Loop-owned state below; never touched off the loop goroutine.
	conns   map[int32]*ingestConn
	readBuf []byte
	batch   []pcm.Sample
	events  []syscall.EpollEvent
}

// newEpollLoop starts the shard's event loop.
func newEpollLoop(sh *ingestShard) (*epollLoop, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create1: %w", err)
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("pipe2: %w", err)
	}
	l := &epollLoop{
		shard:   sh,
		srv:     sh.srv,
		epfd:    epfd,
		wakeR:   p[0],
		wakeW:   p[1],
		conns:   make(map[int32]*ingestConn),
		readBuf: make([]byte, 256*1024+maxCarry),
		batch:   make([]pcm.Sample, 0, 4*feed.MaxFrameSamples),
		events:  make([]syscall.EpollEvent, 128),
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p[0], &ev); err != nil {
		l.closeFDs()
		return nil, fmt.Errorf("epoll_ctl wake: %w", err)
	}
	go l.run()
	return l, nil
}

func (l *epollLoop) closeFDs() {
	syscall.Close(l.epfd)
	syscall.Close(l.wakeR)
	syscall.Close(l.wakeW)
}

// wake nudges the loop out of epoll_wait.
func (l *epollLoop) wake() {
	var b [1]byte
	syscall.Write(l.wakeW, b[:]) // EAGAIN means a wake is already queued
}

// add hands a handshook connection to the loop. The caller must already
// hold a server wg slot for it; the loop releases the slot at finalize.
// An error means the loop has stopped and the caller keeps ownership.
func (l *epollLoop) add(ec *ingestConn) error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return fmt.Errorf("shard %d: event loop stopped", l.shard.id)
	}
	l.pending = append(l.pending, ec)
	l.mu.Unlock()
	l.wake()
	return nil
}

// run is the shard loop: wait, register pending conns, service readiness,
// sweep idle, drain on shutdown.
func (l *epollLoop) run() {
	idle := l.srv.opts.IdleTimeout
	waitMs := -1
	var sweepEvery int64
	if idle > 0 {
		sweepEvery = int64(sweepPeriod(idle))
		waitMs = int(sweepPeriod(idle) / time.Millisecond)
		if waitMs < 1 {
			waitMs = 1
		}
	}
	var lastSweep int64
	for {
		n, err := syscall.EpollWait(l.epfd, l.events, waitMs)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			// Unrecoverable wait failure: stop taking conns, drain what we
			// have so no session is left without its done line.
			l.srv.logf("shard %d: epoll_wait: %v", l.shard.id, err)
			l.shutdown(l.srv.sinceStart())
			return
		}
		now := l.srv.sinceStart()
		// Drain the wake pipe BEFORE taking pending registrations. In the
		// other order an add() racing between the two swallows its own wake
		// byte into this drain while its entry misses the take — and the
		// next epoll_wait blocks forever on a registration nobody signals
		// again. Drain-first makes the race benign: an entry missed by this
		// take wrote its byte after this drain, so the byte survives to wake
		// the next iteration.
		for i := 0; i < n; i++ {
			if int(l.events[i].Fd) == l.wakeR {
				var buf [64]byte
				syscall.Read(l.wakeR, buf[:])
			}
		}
		l.takePending(now)
		l.shard.queueDepth.Store(int64(n))
		for i := 0; i < n; i++ {
			fd := l.events[i].Fd
			if int(fd) == l.wakeR {
				continue
			}
			if ec, ok := l.conns[fd]; ok {
				l.service(ec, now, false)
			}
			l.shard.queueDepth.Store(int64(n - i - 1))
		}
		if l.srv.draining.Load() {
			l.shutdown(now)
			return
		}
		if idle > 0 && now-lastSweep >= sweepEvery {
			lastSweep = now
			for _, ec := range l.conns {
				if now-ec.lastData > int64(idle) {
					l.finalize(ec, nil, true)
				}
			}
		}
	}
}

// takePending registers handed-off connections with the epoll set and
// immediately services the bytes their handshake reader had buffered
// (a short stream can be entirely buffered before handoff).
func (l *epollLoop) takePending(now int64) {
	l.mu.Lock()
	pend := l.pending
	l.pending = nil
	l.mu.Unlock()
	for _, ec := range pend {
		ev := syscall.EpollEvent{
			Events: syscall.EPOLLIN | epollRDHUP,
			Fd:     ec.fd,
		}
		if err := syscall.EpollCtl(l.epfd, syscall.EPOLL_CTL_ADD, int(ec.fd), &ev); err != nil {
			ec.lastData = now
			l.conns[ec.fd] = ec
			l.finalize(ec, fmt.Errorf("epoll_ctl: %v", err), false)
			continue
		}
		ec.lastData = now
		l.conns[ec.fd] = ec
		// The handshake reader may have buffered stream bytes past the
		// handshake line — whole frames, even a whole short stream. Decode
		// them now; afterwards the carry only ever holds a partial frame.
		if len(ec.carry) > 0 {
			cl := copy(l.readBuf, ec.carry)
			if l.decode(ec, l.readBuf[:cl], false) {
				continue
			}
		}
		l.service(ec, now, false)
	}
}

// epollRDHUP is EPOLLRDHUP (0x2000), not exported by the syscall package.
const epollRDHUP = 0x2000

// service runs one read-and-decode pass for ec. With drain set it loops
// until the kernel buffer is empty (or the drain budget is spent) instead
// of relying on another readiness event. Terminal conditions finalize the
// connection inline.
func (l *epollLoop) service(ec *ingestConn, now int64, drain bool) {
	budget := drainReadBudget
	for {
		cl := copy(l.readBuf, ec.carry)
		n, err := syscall.Read(int(ec.fd), l.readBuf[cl:])
		for err == syscall.EINTR {
			n, err = syscall.Read(int(ec.fd), l.readBuf[cl:])
		}
		switch {
		case n > 0:
			ec.lastData = now
			if done := l.decode(ec, l.readBuf[:cl+n], false); done {
				return
			}
			if !drain {
				return // level-triggered: more data re-arms the event
			}
			budget -= n
			if budget <= 0 {
				l.finalize(ec, nil, false)
				return
			}
		case n == 0 && err == nil:
			l.decode(ec, l.readBuf[:cl], true)
			return
		case err == syscall.EAGAIN:
			// The carry is partial-only between passes; nothing to decode.
			if drain {
				l.finalize(ec, nil, false)
			}
			return
		default:
			l.finalize(ec, fmt.Errorf("feed: frame %d: read: %v",
				ec.scan.Frames()+1, os.NewSyscallError("read", err)), false)
			return
		}
	}
}

// decode runs the connection's frame decode over window with the shard
// batch, finalizing the connection when its stream ended. Returns true
// when the connection was finalized.
func (l *epollLoop) decode(ec *ingestConn, window []byte, eof bool) bool {
	ended, err := ec.decode(window, l.batch, eof)
	if ended {
		l.finalize(ec, err, false)
	}
	return ended
}

// finalize ends one event-loop stream: the shared error/done tail (under
// the loop write deadline), then connection close and wg slot release.
func (l *epollLoop) finalize(ec *ingestConn, readErr error, evicted bool) {
	delete(l.conns, ec.fd)
	syscall.EpollCtl(l.epfd, syscall.EPOLL_CTL_DEL, int(ec.fd), nil)
	ec.finish(readErr, evicted)
	ec.conn.Close()
	l.srv.wg.Done()
}

// readPending takes what conn's socket already holds, without waiting: a
// read deadline does not stop it. It returns 0 once the socket is empty or
// at its end, and for conns with no socket fd.
func readPending(conn net.Conn, p []byte) int {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return 0
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return 0
	}
	n := 0 // syscall.Read returns -1 on EAGAIN and every other error
	raw.Control(func(fd uintptr) { n, _ = syscall.Read(int(fd), p) })
	return max(n, 0)
}

// tryEventLoopHandoff moves a handshook binary stream onto its shard's
// event loop. Returns true when ownership transferred: the caller must
// not touch the connection again — the loop owns the read side, the
// response lines, the close, and the server wg slot. On false the conn may
// have been untracked; the caller re-tracks it and pumps it itself.
func (s *Server) tryEventLoopHandoff(c *ingestConn) bool {
	sc, ok := c.conn.(syscall.Conn)
	if !ok {
		return false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	c.fd = -1
	if err := raw.Control(func(f uintptr) { c.fd = int32(f) }); err != nil || c.fd < 0 {
		return false
	}
	ep := c.shard.eventLoop()
	if ep == nil {
		return false
	}
	// Response lines written from the loop must not be able to stall the
	// whole shard on one wedged client.
	c.cw.writeTimeout = epollWriteTimeout
	// The loop owns the close from here; take the conn out of the
	// goroutine-path tracking map so Shutdown neither deadline-interrupts
	// nor force-closes an fd the loop is still servicing.
	s.mu.Lock()
	delete(s.conns, c.conn)
	s.mu.Unlock()
	s.wg.Add(1)
	if err := ep.add(c); err != nil {
		// Loop already stopped (shutdown race): the caller's re-track arms
		// Shutdown's read interrupt and its goroutine pump drains the conn.
		s.wg.Done()
		c.cw.writeTimeout = 0
		return false
	}
	return true
}

// shutdown drains and finalizes every connection, then stops the loop.
// Pending registrations that raced the shutdown are finalized too (their
// wg slots are already held).
func (l *epollLoop) shutdown(now int64) {
	l.mu.Lock()
	l.stopped = true
	pend := l.pending
	l.pending = nil
	l.mu.Unlock()
	for _, ec := range pend {
		l.conns[ec.fd] = ec
	}
	for _, ec := range l.conns {
		l.service(ec, now, true)
	}
	// service finalizes on EAGAIN/EOF in drain mode, so the map is empty
	// unless a conn was finalized twice-defensively; sweep any stragglers.
	for _, ec := range l.conns {
		l.finalize(ec, nil, false)
	}
	l.closeFDs()
}
