package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
)

// Handshake is the first line every stream connection must send:
//
//	sds/1 vm=<id> [app=<name>] [scheme=<sds|sdsb|sdsp|kstest|cusum|timefrag|ewmavar>] [profile=<seconds>] [frames=<csv|bin>]
//
// followed by the telemetry stream in the negotiated encoding: feed CSV
// (`t,access,miss` lines; header and '#' comments allowed — the default)
// or, with `frames=bin`, the compact binary frame format (batched
// 24-byte little-endian sample records; internal/feed/binary.go holds the
// wire grammar). Key=value fields may appear in any order; omitted fields
// fall back to the server's defaults.
// The server answers with line-oriented text responses on the same
// connection regardless of the stream encoding:
//
//	ok vm=<id> app=<name> scheme=<scheme> profile=<seconds> [frames=bin]
//	alarm {"t":…,"detector":…,"metric":…,"reason":…}
//	done vm=<id> samples=<ingested> monitored=<n> dropped=<d> alarms=<a>
//	error: <message>
//
// The ok line confirms `frames=bin` when the binary encoding was
// negotiated; CSV sessions keep the historical reply byte-for-byte (the
// golden transcripts pin it).
//
// Clients that stream without reading MUST at minimum drain the socket at
// end of stream: alarm lines are written inline and TCP backpressure from
// an unread response buffer eventually pauses that VM's ingestion.
const handshakeMagic = "sds/1"

// Stream encodings negotiable via the handshake's frames field.
const (
	framesCSV = "csv"
	framesBin = "bin"
)

// maxHandshakeLen bounds the handshake line.
const maxHandshakeLen = 4096

// Options configures a Server. Zero-value fields fall back to defaults.
type Options struct {
	// Scheme, App, ProfileSeconds, Config and KSConfig are the per-stream
	// defaults applied when a handshake omits the matching field.
	Scheme         string
	App            string
	ProfileSeconds float64
	Config         detect.Config
	KSConfig       detect.KSTestConfig
	// Shards is the number of ingest shards (default runtime.GOMAXPROCS(0)).
	// Every stream is affine to one shard — shard = stripe of the VM
	// name mod Shards — so shard-local state never crosses shards; see
	// shard.go for the model.
	Shards int
	// IdleTimeout evicts a connection whose client sends nothing for this
	// long: the session ends as if the stream closed, so a wedged client
	// cannot hold its VM slot forever.
	// 0 disables idle eviction.
	IdleTimeout time.Duration
	// MaxResumes bounds how many times a VM id may reconnect and resume a
	// session that is still inside its Stage-1 profiling window (default 3;
	// negative disables resumption). Once profiling has completed — or the
	// budget is spent — a reconnect starts a fresh session, as before.
	MaxResumes int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server ingests many VM sample streams concurrently, one detector
// lifecycle per stream, and exposes fleet-wide state to the provider's
// control plane.
type Server struct {
	opts  Options
	start time.Time

	mu sync.Mutex
	// sessions is the server's one VM table: every VM it has served, by
	// name, connected or not.
	sessions  map[string]*vmState
	listeners map[net.Listener]struct{}
	// conns tracks goroutine-path connections (nil value until the handler
	// attaches idle-sweep state). Event-loop connections are owned by
	// their shard loop and are not in this map.
	conns map[net.Conn]*connActivity

	shards    []*ingestShard
	sweepOnce sync.Once
	sweepStop chan struct{}

	wg       sync.WaitGroup // connection handlers
	draining atomic.Bool

	totalAlarms   atomic.Uint64
	idleEvictions atomic.Uint64
}

// vmState tracks one VM's stream across its lifetime (it outlives the
// connection so /metricsz keeps reporting final state after disconnect).
type vmState struct {
	sess      *Session
	connected atomic.Bool
	// sink is the current connection's writer; alarms route through it so a
	// resumed session reports to the live connection, not the dead one. Nil
	// for in-process streams, detached once a connection's stream ended.
	sink atomic.Pointer[connWriter]
	// resumes counts profile-window resumptions (guarded by Server.mu).
	resumes int
	// quarantined counts malformed lines isolated from this VM's stream.
	quarantined atomic.Uint64
}

// New returns a Server with the given defaults.
func New(opts Options) *Server {
	if opts.Scheme == "" {
		opts.Scheme = "sds"
	}
	if opts.App == "" {
		opts.App = "monitored-vm"
	}
	if opts.ProfileSeconds <= 0 {
		opts.ProfileSeconds = 900
	}
	if opts.Config == (detect.Config{}) {
		opts.Config = detect.DefaultConfig()
	}
	if opts.KSConfig == (detect.KSTestConfig{}) {
		opts.KSConfig = detect.DefaultKSTestConfig()
	}
	if opts.MaxResumes == 0 {
		opts.MaxResumes = 3
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		opts:      opts,
		start:     time.Now(),
		sessions:  make(map[string]*vmState),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]*connActivity),
		sweepStop: make(chan struct{}),
	}
	s.shards = make([]*ingestShard, opts.Shards)
	for i := range s.shards {
		s.shards[i] = &ingestShard{id: i, srv: s}
	}
	return s
}

// ShardCount returns the number of ingest shards.
func (s *Server) ShardCount() int { return len(s.shards) }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts stream connections on l until the listener is closed or the
// server shuts down. Call once per listener (TCP and unix socket listeners
// can be served concurrently).
func (s *Server) Serve(l net.Listener) error {
	if s.draining.Load() {
		return fmt.Errorf("server: already shut down")
	}
	s.mu.Lock()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	s.startSweeper()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = nil
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting connections and drains active streams: every
// sample already read from a connection is processed before its handler
// exits. Handlers still running when ctx expires have their connections
// force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.sweepStop)
	}
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	// Interrupt blocking reads; handlers treat the deadline error as end
	// of stream and drain their buffered samples.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	// Shard event loops see the draining flag on wake, drain each of
	// their connections' kernel buffers and finalize them.
	s.wakeLoops()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// withDefaults fills a stream spec's zero fields from the server's
// defaults, the way a handshake's omitted fields fall back.
func (s *Server) withDefaults(spec StreamSpec) StreamSpec {
	if spec.App == "" {
		spec.App = s.opts.App
	}
	if spec.Scheme == "" {
		spec.Scheme = s.opts.Scheme
	}
	if spec.ProfileSeconds <= 0 {
		spec.ProfileSeconds = s.opts.ProfileSeconds
	}
	if spec.Config == (detect.Config{}) {
		spec.Config = s.opts.Config
	}
	if spec.KSConfig == (detect.KSTestConfig{}) {
		spec.KSConfig = s.opts.KSConfig
	}
	return spec
}

// attach binds a stream to its VM state; cw is the connection's writer,
// nil for an in-process stream. A reconnect for a VM whose previous
// connection died inside the Stage-1 profiling window — with a matching
// spec and resume budget left — resumes the existing session where it left
// off (resumed=true); anything else, in-process streams included, installs
// a fresh session, replacing disconnected state. Duplicate active VM ids
// are rejected either way.
func (s *Server) attach(spec StreamSpec, cw *connWriter) (st *vmState, resumed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, known := s.sessions[spec.VM]
	if known && st.connected.Load() {
		return nil, false, fmt.Errorf("vm %q is already streaming", spec.VM)
	}
	if known && cw != nil && st.sink.Load() != nil && st.sess.Profiling() &&
		st.resumes < s.opts.MaxResumes && resumable(st.sess.spec, spec) {
		st.resumes++
		st.sink.Store(cw)
		st.connected.Store(true)
		return st, true, nil
	}
	st = &vmState{}
	st.sink.Store(cw)
	sess, err := NewSession(s.instrument(spec, st))
	if err != nil {
		return nil, false, err
	}
	st.sess = sess
	st.connected.Store(true)
	s.sessions[spec.VM] = st
	return st, false, nil
}

// resumable reports whether a reconnect's spec is compatible with the
// session it wants to resume: the lifecycle parameters must match, or the
// half-built profile would not mean what the new handshake asked for.
func resumable(old, new StreamSpec) bool {
	return old.App == new.App && old.Scheme == new.Scheme &&
		old.ProfileSeconds == new.ProfileSeconds
}

// instrument wires a spec's callbacks: alarms are counted and logged, go
// to the VM's current sink (so resumption redirects them to the live
// connection), and then to the caller's own OnAlarm/OnProfile, if any.
// Sink failures never poison the session — a client that died mid-drain
// must not cost the surviving buffered samples their processing.
func (s *Server) instrument(spec StreamSpec, st *vmState) StreamSpec {
	vm := spec.VM
	onAlarm, onProfile := spec.OnAlarm, spec.OnProfile
	spec.OnAlarm = func(a detect.Alarm) error {
		s.totalAlarms.Add(1)
		s.logf("vm %s: ALARM %s (%s) at %.2fs: %s", vm, a.Detector, a.Metric, a.T, a.Reason)
		if cw := st.sink.Load(); cw != nil {
			if err := cw.line("alarm %s", alarmJSON(a)); err != nil {
				// The client is gone; the alarm stays in the session record
				// and on /metricsz. Poisoning the session here would discard
				// every sample still buffered behind this one.
				s.logf("vm %s: client gone, alarm not delivered: %v", vm, err)
			}
		}
		if onAlarm != nil {
			return onAlarm(a)
		}
		return nil
	}
	spec.OnProfile = func(p detect.Profile, n int) {
		s.logf("vm %s: profiled %s over %d samples (μ_access=%.4g σ=%.4g periodic=%v)",
			vm, p.App, n, p.MeanAccess, p.StdAccess, p.Periodic)
		if onProfile != nil {
			onProfile(p, n)
		}
	}
	return spec
}

// handleConn runs one VM stream. Ownership either stays here for the whole
// stream (serveConn returns false: close and untrack the conn) or moves to
// a shard event loop (true: the loop closes, untracks and logs).
func (s *Server) handleConn(conn net.Conn) {
	if s.serveConn(conn) {
		return
	}
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn handshakes one VM stream and ingests it: binary streams on
// socket conns hand off to their shard's event loop right after the ok
// line; everything else (CSV, non-socket conns, platforms without the
// loop) runs a goroutine pump on this goroutine. Returns whether ownership
// transferred to an event loop.
func (s *Server) serveConn(conn net.Conn) (handed bool) {
	cw := &connWriter{w: bufio.NewWriter(conn), conn: conn}
	if rb, ok := conn.(interface{ SetReadBuffer(int) error }); ok {
		// A larger receive buffer batches the flow-control round trips: with
		// the kernel default, a backpressured stream ping-pongs ~128 KiB
		// chunks between sender wakeup and reader drain, and at 10k
		// connections those per-chunk syscalls dominate the host's CPU.
		// Both TCP and unix-socket conns expose the setter.
		rb.SetReadBuffer(256 * 1024)
	}
	src := &pumpConn{Conn: conn, srv: s}
	act := &src.act
	if s.opts.IdleTimeout > 0 {
		s.track(conn, act)
		s.startSweeper() // covers handlers invoked outside Serve
	}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(src)
	c, bin := s.open(conn, cw, br)
	switch {
	case c == nil:
		putReader(br)
		return false
	case !bin:
		c.finish(c.pumpCSV(br, act))
		putReader(br)
		return false
	}
	// Stream bytes the handshake reader buffered past the handshake line
	// travel with the connection, whichever driver reads it.
	if n := br.Buffered(); n > 0 {
		peek, _ := br.Peek(n)
		c.carry = append(c.carry, peek...)
	}
	putReader(br)
	if s.tryEventLoopHandoff(c) {
		return true
	}
	s.track(conn, act) // a failed handoff has untracked the conn
	c.finish(c.pumpFrames(src, act))
	return false
}

// open reads the handshake, binds the stream to its VM and answers the ok
// line. It returns nil when the stream cannot start (the client is told
// why where the connection still takes a line), and whether the stream
// negotiated binary frames.
func (s *Server) open(conn net.Conn, cw *connWriter, br *bufio.Reader) (c *ingestConn, bin bool) {
	h, err := readHandshake(br)
	if err != nil {
		cw.line("error: %v", err)
		return nil, false
	}
	st, resumed, err := s.attach(s.withDefaults(StreamSpec{
		VM: h.vm, App: h.app, Scheme: h.scheme, ProfileSeconds: h.profileSeconds,
	}), cw)
	if err != nil {
		cw.line("error: %v", err)
		return nil, false
	}
	spec := st.sess.spec
	c = &ingestConn{shard: s.shardFor(h.vm), conn: conn, cw: cw, st: st, vm: h.vm, resumed: resumed}
	c.shard.conns.Add(1)
	bin = h.frames == framesBin
	var framesSuffix string
	if bin {
		framesSuffix = " frames=bin"
	}
	if resumed {
		c.resumeT = st.sess.Stats().LastT
		s.logf("vm %s: stream resumed (resume %d, last_t=%g)", h.vm, st.resumes, c.resumeT)
		err = cw.line("ok vm=%s app=%s scheme=%s profile=%g resumed=%d last_t=%g%s",
			h.vm, spec.App, spec.Scheme, spec.ProfileSeconds, st.resumes, c.resumeT, framesSuffix)
	} else {
		s.logf("vm %s: stream open (app=%s scheme=%s profile=%gs frames=%s)",
			h.vm, spec.App, spec.Scheme, spec.ProfileSeconds, orCSV(h.frames))
		err = cw.line("ok vm=%s app=%s scheme=%s profile=%g%s",
			h.vm, spec.App, spec.Scheme, spec.ProfileSeconds, framesSuffix)
	}
	if err != nil {
		c.shard.conns.Add(-1)
		st.connected.Store(false)
		return nil, false
	}
	return c, bin
}

// track registers a goroutine-driven conn for Shutdown's read interrupt and
// the idle sweep. A conn tracked after Shutdown armed its deadlines (a
// handoff that lost the race with a stopping loop) gets one here, so its
// pump still drains and answers instead of blocking on a silent client.
func (s *Server) track(conn net.Conn, act *connActivity) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[conn] = act
	if s.draining.Load() {
		conn.SetReadDeadline(time.Now())
	}
}

// orCSV names the effective encoding for log lines.
func orCSV(frames string) string {
	if frames == "" {
		return framesCSV
	}
	return frames
}

// Stream is an in-process VM stream: the same lifecycle as a connection,
// fed directly by the caller (which provides natural backpressure).
type Stream struct {
	state *vmState
	shard *ingestShard
}

// OpenStream registers an in-process stream for spec.VM. The spec's zero
// fields default like a handshake's omitted fields.
func (s *Server) OpenStream(spec StreamSpec) (*Stream, error) {
	if spec.VM == "" {
		return nil, fmt.Errorf("in-process stream needs a VM name")
	}
	st, _, err := s.attach(s.withDefaults(spec), nil)
	if err != nil {
		return nil, err
	}
	return &Stream{state: st, shard: s.shardFor(spec.VM)}, nil
}

// Observe ingests one sample.
func (st *Stream) Observe(smp pcm.Sample) error {
	_, err := st.ObserveBatch([]pcm.Sample{smp})
	return err
}

// ObserveBatch ingests a run of samples under one session lock and counts
// them in the VM's shard row, the way a connection's batches are counted.
// It returns how many samples were consumed before any error.
func (st *Stream) ObserveBatch(batch []pcm.Sample) (int, error) {
	return st.shard.observe(st.state.sess, batch)
}

// Session exposes the stream's session (stats, profile, alarms).
func (st *Stream) Session() *Session { return st.state.sess }

// Close ends the stream and frees its VM slot.
func (st *Stream) Close() (SessionStats, error) {
	st.state.connected.Store(false)
	return st.state.sess.Close()
}

// handshake is the parsed first line of a stream connection.
type handshake struct {
	vm             string
	app            string
	scheme         string
	profileSeconds float64
	frames         string // "", framesCSV or framesBin
}

// readHandshake reads and parses the handshake line.
func readHandshake(br *bufio.Reader) (handshake, error) {
	line, err := br.ReadString('\n')
	if err != nil && (err != io.EOF || line == "") {
		return handshake{}, fmt.Errorf("reading handshake: %v", err)
	}
	if len(line) > maxHandshakeLen {
		return handshake{}, fmt.Errorf("handshake line exceeds %d bytes", maxHandshakeLen)
	}
	return parseHandshake(strings.TrimSpace(line))
}

// parseHandshake parses `sds/1 vm=<id> [key=value]...`.
func parseHandshake(line string) (handshake, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != handshakeMagic {
		return handshake{}, fmt.Errorf("want handshake %q vm=<id> [app=] [scheme=] [profile=], got %q", handshakeMagic, line)
	}
	var h handshake
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok || val == "" {
			return handshake{}, fmt.Errorf("malformed handshake field %q (want key=value)", f)
		}
		switch key {
		case "vm":
			h.vm = val
		case "app":
			h.app = val
		case "scheme":
			h.scheme = val
		case "profile":
			sec, err := strconv.ParseFloat(val, 64)
			if err != nil || sec <= 0 {
				return handshake{}, fmt.Errorf("bad profile window %q", val)
			}
			h.profileSeconds = sec
		case "frames":
			switch val {
			case framesCSV, framesBin:
				h.frames = val
			default:
				return handshake{}, fmt.Errorf("unknown frames encoding %q (want csv or bin)", val)
			}
		default:
			return handshake{}, fmt.Errorf("unknown handshake field %q", key)
		}
	}
	if h.vm == "" {
		return handshake{}, fmt.Errorf("handshake is missing the vm=<id> field")
	}
	return h, nil
}

// detached is the sink of a VM whose connection's stream has ended: it
// holds no buffer or conn, and fails every line like a dead client.
var detached = &connWriter{err: net.ErrClosed}

// connWriter serializes line writes to a connection. When writeTimeout is
// set — connections owned by a shard event loop — every line is bounded
// by a write deadline, so one wedged client cannot stall the
// single-threaded loop; past the deadline the writer goes sticky-failed
// like any dead client.
type connWriter struct {
	mu           sync.Mutex
	w            *bufio.Writer
	err          error
	conn         net.Conn
	writeTimeout time.Duration
}

func (c *connWriter) line(format string, args ...any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.writeTimeout > 0 && c.conn != nil {
		c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	if _, err := fmt.Fprintf(c.w, format+"\n", args...); err != nil {
		c.err = err
		return err
	}
	if err := c.w.Flush(); err != nil {
		c.err = err
		return err
	}
	return nil
}

// AlarmEvent is the JSON wire format of one alarm (also detectd's -json
// output format).
type AlarmEvent struct {
	T        float64 `json:"t"`
	Detector string  `json:"detector"`
	Metric   string  `json:"metric"`
	Reason   string  `json:"reason"`
}

// NewAlarmEvent converts a detect.Alarm to its wire format.
func NewAlarmEvent(a detect.Alarm) AlarmEvent {
	return AlarmEvent{T: a.T, Detector: a.Detector, Metric: a.Metric.String(), Reason: a.Reason}
}

// alarmJSON renders an alarm as a one-line JSON object.
func alarmJSON(a detect.Alarm) string {
	b, err := json.Marshal(NewAlarmEvent(a))
	if err != nil {
		return fmt.Sprintf(`{"t":%g,"detector":%q}`, a.T, a.Detector)
	}
	return string(b)
}
