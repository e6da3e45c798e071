package server

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/memdos/sds/internal/pcm"
)

// The ingest plane is sharded: the server owns Options.Shards ingest
// shards (default runtime.GOMAXPROCS(0)), and every network stream is
// affine to exactly one of them for its whole life. Affinity is derived
// from the VM name, not the accepting listener: ingest shard =
// stripe(vm) mod shard count, so a VM that disconnects and resumes
// always lands back on the same shard (the affinity invariant the race
// tests pin: one VM's samples are never observed from two shards
// concurrently). In-process streams count into their VM's shard row too.
//
// Every connection is one ingestConn (ingest.go), which owns the frame
// decode, the resume filter, quarantine accounting, the batched observe
// step and the error/done tail; only the read driver differs. On Linux,
// each shard runs an epoll event loop (see epoll_linux.go) that reads its
// binary streams: one bounded worker services socket-readiness events with
// large block reads into a shard-local buffer — no per-connection
// goroutines, no bufio copy, no channel handoff. Connections the loop
// cannot take (CSV streams, non-socket conns like net.Pipe in tests,
// non-Linux platforms) are read by a blocking per-connection pump and are
// still accounted to their shard.
//
// SO_REUSEPORT accept sharding (ListenShards) is the front door: it gives
// the daemon one accept queue per shard so accept work spreads across
// cores. It deliberately does not determine processing affinity — the
// kernel hashes connections by 4-tuple, which says nothing about VM
// identity; the VM-stripe mapping above does.
type ingestShard struct {
	id  int
	srv *Server

	// Hot counters, exported per shard on /metricsz. They are the server's
	// only ingest counters: the /metricsz totals are their sums.
	conns       atomic.Int64  // streams currently attached to this shard
	samples     atomic.Uint64 // samples ingested via this shard
	frames      atomic.Uint64 // binary frames decoded by this shard
	quarantined atomic.Uint64 // samples quarantined on this shard
	queueDepth  atomic.Int64  // readiness events awaiting service in the event loop

	// mu guards lazy event-loop construction; ep stays nil where the
	// platform (or the socket) cannot support it.
	mu      sync.Mutex
	ep      *epollLoop
	epFatal bool // loop construction failed; don't retry per connection
}

// observe ingests batch into sess under one session lock and counts what
// was consumed in the shard row: the one observe step of every ingest
// path, connection or in-process.
func (sh *ingestShard) observe(sess *Session, batch []pcm.Sample) (int, error) {
	n, err := sess.ObserveBatch(batch)
	sh.samples.Add(uint64(n))
	return n, err
}

// shardFor maps a VM name to its ingest shard.
func (s *Server) shardFor(vm string) *ingestShard {
	return s.shards[stripe(vm)%len(s.shards)]
}

// stripe maps a VM name to one of 64 stripes by FNV-1a, inlined so the hot
// path allocates nothing (hash/fnv would force the string through an
// io.Writer). The mapping is part of the deployment contract: a VM keeps
// its shard across releases, so it must not change.
func stripe(vm string) int {
	h := uint32(2166136261)
	for i := 0; i < len(vm); i++ {
		h ^= uint32(vm[i])
		h *= 16777619
	}
	return int(h & 63)
}

// eventLoop returns the shard's event loop, starting it on first use.
// Returns nil when the platform has no event loop or starting one failed.
func (sh *ingestShard) eventLoop() *epollLoop {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.ep != nil || sh.epFatal {
		return sh.ep
	}
	ep, err := newEpollLoop(sh)
	if err != nil {
		sh.epFatal = true
		sh.srv.logf("shard %d: event loop unavailable, using per-connection pumps: %v", sh.id, err)
		return nil
	}
	sh.ep = ep
	return ep
}

// wakeLoops nudges every running event loop (shutdown, drain).
func (s *Server) wakeLoops() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.ep != nil {
			sh.ep.wake()
		}
		sh.mu.Unlock()
	}
}

// sinceStart is the monotonic clock the idle sweeps run on (nanoseconds
// since server start; one VDSO clock read, no syscall).
func (s *Server) sinceStart() int64 { return int64(time.Since(s.start)) }

// connActivity tracks a goroutine-mode connection's read liveness for the
// idle sweep. readStart holds the sinceStart timestamp at which the
// current blocking Read began (0 = not blocked in Read): a connection is
// idle when one Read has been blocked longer than IdleTimeout — exactly
// the window the old per-read SetReadDeadline armed, now observed by a
// coarse sweep instead of two deadline syscalls per read.
type connActivity struct {
	readStart atomic.Int64
	evicted   atomic.Bool
}

// sweepPeriod is the idle-sweep granularity: fine enough that an eviction
// fires within ~¼ of the timeout past the deadline, coarse enough that
// the sweep is noise even at 100k connections.
func sweepPeriod(idle time.Duration) time.Duration {
	p := idle / 4
	if p < time.Millisecond {
		p = time.Millisecond
	}
	if p > time.Second {
		p = time.Second
	}
	return p
}

// startSweeper launches the goroutine-path idle sweeper once. Event-loop
// connections are swept by their own shard loops; this covers the
// goroutine pumps (CSV streams, fallback binary pumps, handshakes).
func (s *Server) startSweeper() {
	if s.opts.IdleTimeout <= 0 {
		return
	}
	s.sweepOnce.Do(func() {
		go func() {
			t := time.NewTicker(sweepPeriod(s.opts.IdleTimeout))
			defer t.Stop()
			for {
				select {
				case <-s.sweepStop:
					return
				case <-t.C:
					s.sweepConns()
				}
			}
		}()
	})
}

// sweepConns evicts goroutine-path connections whose current Read has
// been blocked past IdleTimeout.
func (s *Server) sweepConns() {
	now := s.sinceStart()
	idle := int64(s.opts.IdleTimeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return // shutdown's interrupt owns the deadlines now
	}
	for conn, act := range s.conns {
		if act == nil {
			continue
		}
		if rs := act.readStart.Load(); rs != 0 && now-rs > idle {
			act.evicted.Store(true)
			conn.SetReadDeadline(time.Now())
		}
	}
}
