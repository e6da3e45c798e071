package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/pcm"
)

// ingestConn is one handshook stream connection. It alone owns what every
// ingest path shares: the binary frame decode (feed.FrameScanner plus the
// carried partial frame), the resume filter, quarantine accounting, the
// batched observe step with its sticky session error, and the one
// error/done tail. Two read drivers feed it: a shard's epoll loop
// (epoll_linux.go) and the blocking goroutine pumps below, which take CSV
// streams and every binary stream the loop cannot own.
type ingestConn struct {
	shard   *ingestShard
	conn    net.Conn
	cw      *connWriter
	st      *vmState
	vm      string
	resumed bool
	resumeT float64 // samples at or before it were ingested before the resume

	scan    feed.FrameScanner
	carry   []byte // partial trailing frame from the previous window
	procErr error  // sticky session error; the stream drains to its end discarded

	// Event-loop state; the goroutine pumps leave it zero.
	fd       int32
	lastData int64 // sinceStart nanos of the last byte received
}

// maxCarry bounds a carried partial frame: a header plus a full payload.
const maxCarry = 3 + 24*feed.MaxFrameSamples

// readerPool, batchPool and windowPool recycle the goroutine pumps'
// per-connection buffers (64 KiB handshake/CSV reader, one frame batch,
// one binary read window): at 10k concurrent streams, per-conn allocation
// would cost >1 GB of memclr and the GC churn to match.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64*1024) }}
	batchPool  = sync.Pool{New: func() any { return make([]pcm.Sample, 0, feed.MaxFrameSamples) }}
	windowPool = sync.Pool{New: func() any { return make([]byte, 64*1024+maxCarry) }}
)

func putReader(br *bufio.Reader) {
	br.Reset(nil) // drop the conn reference before pooling
	readerPool.Put(br)
}

// quarantine counts n samples isolated from the stream, per VM and per shard.
func (c *ingestConn) quarantine(n int) {
	c.st.quarantined.Add(uint64(n))
	c.shard.quarantined.Add(uint64(n))
}

// decode walks every complete frame in window, batching samples into
// batch (scratch, capacity ≥ feed.MaxFrameSamples) and observing them in
// bulk. eof marks the stream's end: a leftover partial frame is then a
// truncation error. It reports whether the stream ended (end frame,
// framing loss or eof) and the error to end it with; otherwise the
// partial trailing frame is carried into the next window.
func (c *ingestConn) decode(window []byte, batch []pcm.Sample, eof bool) (ended bool, err error) {
	batch = batch[:0]
	pos := 0
	for {
		if cap(batch)-len(batch) < feed.MaxFrameSamples {
			c.flush(batch)
			batch = batch[:0]
		}
		dst := batch[len(batch):len(batch)]
		consumed, n, q, err := c.scan.Next(window[pos:], dst)
		if q > 0 {
			c.quarantine(q)
			c.shard.srv.logf("vm %s: quarantined %d non-finite samples in frame %d", c.vm, q, c.scan.Frames())
		}
		if err != nil {
			c.flush(batch)
			if err == io.EOF {
				err = nil
			}
			return true, err
		}
		if consumed == 0 {
			break // partial frame: carry the tail
		}
		pos += consumed
		c.shard.frames.Add(1)
		batch = batch[:len(batch)+n]
	}
	c.flush(batch)
	tail := window[pos:]
	if eof {
		return true, c.scan.Truncated(tail)
	}
	c.carry = append(c.carry[:0], tail...)
	return false, nil
}

// flush observes a batched run of samples under one session lock. A
// resumed client replays its stream from the start, so samples at or
// before the resume point are dropped first: the session sees each
// sample exactly once, in order.
func (c *ingestConn) flush(batch []pcm.Sample) {
	if c.procErr != nil {
		return
	}
	if c.resumed {
		k := 0
		for _, smp := range batch {
			if smp.T > c.resumeT {
				batch[k] = smp
				k++
			}
		}
		batch = batch[:k]
	}
	if len(batch) == 0 {
		return
	}
	if _, err := c.shard.observe(c.st.sess, batch); err != nil {
		c.procErr = err
	}
}

// finish is every stream's one tail: release the VM slot, close the
// session and answer the error (if any) and done lines.
func (c *ingestConn) finish(readErr error, evicted bool) {
	s := c.shard.srv
	c.shard.conns.Add(-1)
	c.st.connected.Store(false)
	stats, closeErr := c.st.sess.Close()
	// Release the writer (its buffer and the conn) for as long as the
	// session row outlives the stream; a resume that raced in keeps its own.
	c.st.sink.CompareAndSwap(c.cw, detached)
	if evicted {
		s.idleEvictions.Add(1)
	}
	switch {
	case c.procErr != nil:
		c.cw.line("error: %v", c.procErr)
	case readErr != nil:
		c.cw.line("error: %v", readErr)
	case evicted:
		c.cw.line("error: idle timeout: no samples for %v", s.opts.IdleTimeout)
	case closeErr != nil:
		c.cw.line("error: %v", closeErr)
	}
	c.cw.line("done vm=%s samples=%d monitored=%d dropped=%d alarms=%d",
		c.vm, stats.Ingested(), stats.Monitored, stats.Dropped, stats.Alarms)
	s.logf("vm %s: stream closed (%d samples, %d dropped, %d alarms, alarmed=%v)",
		c.vm, stats.Ingested(), stats.Dropped, stats.Alarms, stats.Alarmed)
}

// pumpCSV drives a CSV stream from blocking reads: parse a line, batch
// the sample, observe full batches. Backpressure is not reading; before
// the pump blocks on the socket it observes what it has, so a live stream
// is never parked in the batch. A malformed line is quarantined and the
// stream kept: one torn write must not kill an otherwise healthy stream.
func (c *ingestConn) pumpCSV(br *bufio.Reader, act *connActivity) (readErr error, evicted bool) {
	batch := batchPool.Get().([]pcm.Sample)
	defer func() { batchPool.Put(batch[:0]) }()
	reader := feed.NewReader(br)
	for {
		if len(batch) > 0 && br.Buffered() == 0 {
			c.flush(batch)
			batch = batch[:0]
		}
		smp, err := reader.Next()
		if err != nil {
			var pe *feed.ParseError
			if errors.As(err, &pe) {
				c.quarantine(1)
				c.shard.srv.logf("vm %s: quarantined malformed line %d: %v", c.vm, pe.Line, pe.Err)
				continue
			}
			c.flush(batch)
			return readEnd(err, act)
		}
		batch = append(batch, smp)
		if len(batch) == cap(batch) {
			c.flush(batch)
			batch = batch[:0]
		}
	}
}

// pumpFrames drives a binary stream from blocking reads through the same
// decode the event loop runs: the fallback for connections no loop can
// own (non-socket conns, other platforms, a failed handoff). The carry
// starts out holding the stream bytes the handshake reader buffered.
func (c *ingestConn) pumpFrames(r io.Reader, act *connActivity) (readErr error, evicted bool) {
	buf := windowPool.Get().([]byte)
	batch := batchPool.Get().([]pcm.Sample)
	defer func() {
		windowPool.Put(buf)
		batchPool.Put(batch)
	}()
	cl, n := copy(buf, c.carry), 0
	var err error
	for {
		if ended, derr := c.decode(buf[:cl+n], batch, err == io.EOF); ended {
			return derr, false
		}
		if err != nil {
			return readEnd(fmt.Errorf("feed: frame %d: read: %w", c.scan.Frames()+1, err), act)
		}
		cl = copy(buf, c.carry)
		n, err = r.Read(buf[cl:])
	}
}

// drainReadBudget caps how many bytes one connection may contribute
// during shutdown drain: enough to empty a full kernel receive buffer,
// finite so a still-streaming client cannot hold the drain open.
const drainReadBudget = 1 << 20

// pumpConn is the goroutine pumps' read source. It stamps read liveness
// for the idle sweep and arms no deadlines itself: the sweeper sets a
// deadline in the past to interrupt a read it has decided to evict, and
// Shutdown does the same to every tracked conn, so act.evicted tells the
// two apart. After Shutdown's interrupt the next Read fails without taking
// the bytes the client had already sent, so pumpConn then takes what is
// still in the socket, up to drainReadBudget, as the event loop's drain
// does, and only then returns the interrupt, which ends the stream.
type pumpConn struct {
	net.Conn
	srv  *Server
	act  connActivity
	stop error // Shutdown's interrupt, once seen
	left int   // drain bytes left
}

func (c *pumpConn) Read(p []byte) (int, error) {
	if c.stop == nil {
		c.act.readStart.Store(c.srv.sinceStart())
		n, err := c.Conn.Read(p)
		c.act.readStart.Store(0)
		if n > 0 || err == nil || !isDeadlineErr(err) || c.act.evicted.Load() {
			return n, err
		}
		c.stop, c.left = err, drainReadBudget
	}
	if n := readPending(c.Conn, p[:min(len(p), c.left)]); n > 0 {
		c.left -= n
		return n, nil
	}
	return 0, c.stop
}

// readEnd classifies the error that stopped a goroutine pump's reads. A
// read deadline is an idle eviction when the sweeper armed it, and
// otherwise Shutdown's interrupt: the end of the stream, drained.
func readEnd(err error, act *connActivity) (readErr error, evicted bool) {
	switch {
	case err == io.EOF:
		return nil, false
	case isDeadlineErr(err):
		return nil, act.evicted.Load()
	}
	return err, false
}

// isDeadlineErr reports whether err stems from a read deadline.
func isDeadlineErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
