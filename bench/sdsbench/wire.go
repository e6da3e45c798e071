package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/server"
	"github.com/memdos/sds/internal/workload"
)

// The wire workloads drive an unmodified sdsd child over loopback TCP with
// the sds/1 protocol: two connections, one kmeans VM each, scheme sds.
// Each stream is a 60 s attack-free Stage-1 head followed by a 600 s
// segment under a duty-cycled bus-lock attack (30 s bursts), so alarms
// keep recurring; the generator loops the segment for as long as a run
// lasts and rewrites only the timestamps, T = (i+1)/100 for sample i.
const (
	wireVMs            = 2
	wireProfileSeconds = 60
	wireSegmentSeconds = 600
	// writeFrames caps the frames one write call carries: a paced catch-up
	// burst, or one closed-loop write.
	writeFrames = 16
	// wireSetups is how many times a run starts sdsd and profiles both
	// VMs; setup_s is their median.
	wireSetups = 9
	// wireCorpusSamples is how much of each stream the traced run replays
	// through the layers.
	wireCorpusSamples = 1 << 20
	// wireProbeVMs is how many short streams measure the memory sdsd
	// keeps per VM.
	wireProbeVMs = 128
	// heapReads is how many live-heap readings settledHeap takes.
	heapReads = 4
)

// wireEncoding is what differs between the two wire workloads.
type wireEncoding struct {
	name string
	csv  bool
	// rate is the paced phase's samples/s over both connections: about a
	// third of what the encoding's closed loop sustains on a 2-core host,
	// where the generator still keeps its schedule.
	rate float64
	// off is the attack's pause between 30 s bursts. At each encoding's
	// rate it yields about 150 alarms a second, over a thousand latency
	// samples per run yet few enough that a session's alarm history stays
	// short (a session copies its whole history each time an alarm fires).
	off float64
	// pinLoops is how many segment loops the pinned alarm digest covers.
	pinLoops int
}

var (
	wireBin = wireEncoding{name: "wire-bin", rate: 8e6, off: 570, pinLoops: 100}
	wireCSV = wireEncoding{name: "wire-csv", csv: true, rate: 1e6, off: 30, pinLoops: 50}
)

// wireStream is one VM's telemetry: a Stage-1 head, then a segment looped
// for as long as the run lasts.
type wireStream struct {
	rendered []pcm.Sample // head followed by one copy of the segment
	head     int
	tails    []byte  // ",access,miss\n" per rendered sample, for CSV
	tailOff  []int32 // offsets into tails, one past the end appended
	scratch  []pcm.Sample
}

func renderWireStream(seed uint64, vm int, off float64) (*wireStream, error) {
	head := wireProfileSeconds * samplesPerSecond
	sched := attack.Schedule{Kind: attack.BusLock, Start: sampleT(head), Strategy: attack.DutyCycle{On: 30, Off: off}}
	all, err := renderStream(seed, fmt.Sprintf("wire/vm-%d", vm), workload.KMeans,
		head+wireSegmentSeconds*samplesPerSecond, sched)
	if err != nil {
		return nil, err
	}
	s := &wireStream{rendered: all, head: head, tailOff: make([]int32, 0, len(all)+1)}
	for _, smp := range all {
		s.tailOff = append(s.tailOff, int32(len(s.tails)))
		s.tails = append(s.tails, ',')
		s.tails = strconv.AppendFloat(s.tails, smp.Access, 'g', -1, 64)
		s.tails = append(s.tails, ',')
		s.tails = strconv.AppendFloat(s.tails, smp.Miss, 'g', -1, 64)
		s.tails = append(s.tails, '\n')
	}
	s.tailOff = append(s.tailOff, int32(len(s.tails)))
	return s, nil
}

// index maps stream sample i to the rendered sample it repeats.
func (s *wireStream) index(i int) int {
	if i < s.head {
		return i
	}
	return s.head + (i-s.head)%(len(s.rendered)-s.head)
}

func (s *wireStream) sample(i int) pcm.Sample {
	smp := s.rendered[s.index(i)]
	smp.T = sampleT(i)
	return smp
}

// frame returns frame f of the stream in a scratch buffer the next call
// overwrites.
func (s *wireStream) frame(f int) []pcm.Sample {
	if s.scratch == nil {
		s.scratch = make([]pcm.Sample, frameSamples)
	}
	for k := range s.scratch {
		s.scratch[k] = s.sample(f*frameSamples + k)
	}
	return s.scratch
}

// appendFrames encodes frames [first, first+n) of the stream.
func (s *wireStream) appendFrames(b []byte, csv bool, first, n int) []byte {
	for f := first; f < first+n; f++ {
		if !csv {
			b = appendBinFrame(b, s.frame(f))
			continue
		}
		for i := f * frameSamples; i < (f+1)*frameSamples; i++ {
			// T = (i+1)/100 in decimal parses to exactly sampleT(i).
			n := i + 1
			b = strconv.AppendInt(b, int64(n/100), 10)
			b = append(b, '.', byte('0'+n/10%10), byte('0'+n%10))
			k := s.index(i)
			b = append(b, s.tails[s.tailOff[k]:s.tailOff[k+1]]...)
		}
	}
	return b
}

// sleepUntil blocks until t. time.Sleep rounds sub-millisecond waits up to
// about a millisecond here, which would make the paced generator itself
// the latency being measured; nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// sdsdProc is one running sdsd child.
type sdsdProc struct {
	cmd        *exec.Cmd
	streamAddr string
	opsURL     string
	logDone    chan struct{}
	client     *http.Client
}

func startSdsd(bin string) (*sdsdProc, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-ops", "127.0.0.1:0", "-quiet",
		"-profile-seconds", strconv.Itoa(wireProfileSeconds), "-fd-limit", "0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sdsd: %w", err)
	}
	track(cmd.Process)
	p := &sdsdProc{cmd: cmd, logDone: make(chan struct{}), client: &http.Client{Timeout: 10 * time.Second}}
	sc := bufio.NewScanner(stderr)
	var lines []string
	for (p.streamAddr == "" || p.opsURL == "") && sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if _, rest, ok := strings.Cut(line, "streaming on tcp "); ok {
			p.streamAddr, _, _ = strings.Cut(rest, " ")
		}
		if _, rest, ok := strings.Cut(line, "ops surface on "); ok {
			p.opsURL = strings.TrimSpace(rest)
		}
	}
	if p.streamAddr == "" || p.opsURL == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("sdsd did not report its addresses: %q", lines)
	}
	go func() {
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, "sdsd:", sc.Text())
		}
		close(p.logDone)
	}()
	return p, nil
}

// stop drains sdsd with SIGTERM, killing it if the drain hangs, and waits
// for it and its log reader to finish.
func (p *sdsdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-exited
	}
	<-p.logDone
	untrack(p.cmd.Process)
}

func (p *sdsdProc) pid() int { return p.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (p *sdsdProc) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := p.client.Get(p.opsURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sdsd /healthz not ready after 10s (last error %v)", err)
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// liveHeap asks sdsd's pprof heap endpoint to collect garbage and reads
// the live heap (runtime.MemStats.HeapAlloc) from its text report.
func (p *sdsdProc) liveHeap() (int64, error) {
	resp, err := p.client.Get(p.opsURL + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("sdsd heap profile has no HeapAlloc line")
}

// settledHeap is the smallest of heapReads liveHeap readings 20 ms apart.
// Right after connections end, the first collection still finds their
// buffers in sync.Pool caches and their goroutines finishing: on the CSV
// path that reading was 80–190 KB above the later ones, which agreed
// within a few KB.
func (p *sdsdProc) settledHeap() (int64, error) {
	best := int64(math.MaxInt64)
	for k := 0; k < heapReads; k++ {
		if k > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		h, err := p.liveHeap()
		if err != nil {
			return 0, err
		}
		best = min(best, h)
	}
	return best, nil
}

// vmRow is the part of a /metricsz VM row the benchmark reads.
type vmRow struct {
	Profiling   bool   `json:"profiling"`
	Quarantined uint64 `json:"quarantined"`
}

func (p *sdsdProc) metricsz() (map[string]vmRow, error) {
	resp, err := p.client.Get(p.opsURL + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		VMs map[string]vmRow `json:"vms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metricsz: %w", err)
	}
	return m.VMs, nil
}

// wireAlarm is one alarm line as the client read it.
type wireAlarm struct {
	t                float64
	detector, metric string
	recv             time.Time
}

// wireConn is one VM connection. The reader goroutine owns alarms and the
// done fields until readerDone closes.
type wireConn struct {
	vm         string
	conn       *net.TCPConn
	stream     *wireStream
	csv        bool
	frames     int // frames sent so far
	buf        []byte
	trace      int32
	encodeTime time.Duration // closed-loop encoding, owned by its writer

	readerDone  chan struct{}
	alarms      []wireAlarm
	doneSamples int64
	dropped     int64
	readErr     error
}

// dialWire opens a connection and completes the sds/1 handshake.
func dialWire(addr, vm string, s *wireStream, csv bool, tr *tracer) (*wireConn, error) {
	c := &wireConn{vm: vm, stream: s, csv: csv, readerDone: make(chan struct{}), doneSamples: -1, trace: tr.trace(vm)}
	start := time.Now()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.conn = nc.(*net.TCPConn)
	c.conn.SetWriteBuffer(4 << 20)
	hs := fmt.Sprintf("sds/1 vm=%s app=%s scheme=sds profile=%d", vm, workload.KMeans, wireProfileSeconds)
	if !csv {
		hs += " frames=bin"
	}
	if _, err := fmt.Fprintf(c.conn, "%s\n", hs); err != nil {
		c.conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(c.conn, 64<<10)
	reply, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "ok ") {
		c.conn.Close()
		return nil, fmt.Errorf("handshake for %s: reply %q, err %v", vm, reply, err)
	}
	tr.record(c.trace, -1, "client.handshake", "", start, time.Now())
	go c.readLoop(br, tr)
	return c, nil
}

// readLoop reads the server's alarm and done lines, timestamping each
// alarm as it arrives.
func (c *wireConn) readLoop(br *bufio.Reader, tr *tracer) {
	defer close(c.readerDone)
	for {
		start := time.Now()
		line, err := br.ReadString('\n')
		now := time.Now()
		if err != nil {
			if err != io.EOF {
				c.readErr = err
			}
			return
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "alarm "):
			var ev server.AlarmEvent
			if err := json.Unmarshal([]byte(line[len("alarm "):]), &ev); err != nil {
				c.readErr = fmt.Errorf("bad alarm line %q: %v", line, err)
				return
			}
			c.alarms = append(c.alarms, wireAlarm{t: ev.T, detector: ev.Detector, metric: ev.Metric, recv: now})
			tr.record(c.trace, -1, "client.alarm_read", "", start, time.Now())
		case strings.HasPrefix(line, "done "):
			for _, f := range strings.Fields(line)[1:] {
				k, v, _ := strings.Cut(f, "=")
				n, _ := strconv.ParseInt(v, 10, 64)
				switch k {
				case "samples":
					c.doneSamples = n
				case "dropped":
					c.dropped = n
				}
			}
		case strings.HasPrefix(line, "error: "):
			c.readErr = fmt.Errorf("sdsd: %s", line)
		}
	}
}

// send encodes and writes n frames, returning the time spent encoding.
func (c *wireConn) send(n int) (encode time.Duration, err error) {
	start := time.Now()
	c.buf = c.stream.appendFrames(c.buf[:0], c.csv, c.frames, n)
	encode = time.Since(start)
	_, err = c.conn.Write(c.buf)
	c.frames += n
	return encode, err
}

// finish ends the stream and waits for the done line.
func (c *wireConn) finish() error {
	if !c.csv {
		if _, err := c.conn.Write([]byte{0x02}); err != nil {
			return err
		}
	}
	if err := c.conn.CloseWrite(); err != nil {
		return err
	}
	<-c.readerDone
	c.conn.Close()
	if c.readErr != nil {
		return c.readErr
	}
	if c.doneSamples < 0 {
		return fmt.Errorf("%s: connection closed without a done line", c.vm)
	}
	return nil
}

// wireInstance is one sdsd with both VMs past Stage 1.
type wireInstance struct {
	proc  *sdsdProc
	conns []*wireConn
	setup time.Duration
}

// setupFrames covers the Stage-1 head plus the first monitored sample,
// whose arrival makes the session build its profile.
const setupFrames = (wireProfileSeconds*samplesPerSecond + 1 + frameSamples - 1) / frameSamples

// setupWire times one set-up: sdsd exec → /healthz 200 → both handshakes
// ok → both VMs report profiling:false on /metricsz.
func setupWire(bin string, streams []*wireStream, csv bool, tr *tracer) (*wireInstance, error) {
	id := tr.begin(-1, -1, "wire.setup", "")
	defer tr.end(id)
	start := time.Now()
	p, err := startSdsd(bin)
	if err != nil {
		return nil, err
	}
	inst := &wireInstance{proc: p}
	fail := func(err error) (*wireInstance, error) {
		for _, c := range inst.conns {
			c.conn.Close()
		}
		p.stop()
		return nil, err
	}
	if err := p.waitHealthy(); err != nil {
		return fail(err)
	}
	for i, s := range streams {
		c, err := dialWire(p.streamAddr, fmt.Sprintf("vm-%d", i), s, csv, tr)
		if err != nil {
			return fail(err)
		}
		inst.conns = append(inst.conns, c)
	}
	for _, c := range inst.conns {
		if _, err := c.send(setupFrames); err != nil {
			return fail(err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		vms, err := p.metricsz()
		if err != nil {
			return fail(err)
		}
		ready := len(vms) == len(inst.conns)
		for _, row := range vms {
			ready = ready && !row.Profiling
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("VMs still profiling 30s after the Stage-1 frames were sent"))
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
	inst.setup = time.Since(start)
	return inst, nil
}

// close abandons an instance used only to time set-up.
func (inst *wireInstance) close() {
	for _, c := range inst.conns {
		c.conn.Close()
		<-c.readerDone
	}
	inst.proc.stop()
}

// probeMemory streams the Stage-1 head plus the first monitored frame for
// wireProbeVMs more VMs, two connections at a time, and returns the live
// heap sdsd keeps per VM after their streams have ended, between settled
// readings: sessions outlive their connections (they stay on /metricsz),
// each with its profile and detector. Many short streams, not the two long
// ones, so that per-shard buffers and the long streams' alarm histories do
// not count as per-VM.
func probeMemory(inst *wireInstance, streams []*wireStream, csv bool) (float64, error) {
	before, err := inst.proc.settledHeap()
	if err != nil {
		return 0, err
	}
	for k := 0; k < wireProbeVMs/len(streams); k++ {
		conns := make([]*wireConn, len(streams))
		for i, s := range streams {
			if conns[i], err = dialWire(inst.proc.streamAddr, fmt.Sprintf("probe-%d-%d", k, i), s, csv, nil); err != nil {
				return 0, err
			}
		}
		for _, c := range conns {
			if _, err := c.send(setupFrames); err != nil {
				return 0, err
			}
		}
		for _, c := range conns {
			if err := c.finish(); err != nil {
				return 0, err
			}
		}
	}
	after, err := inst.proc.settledHeap()
	if err != nil {
		return 0, err
	}
	return float64(after-before) / wireProbeVMs, nil
}

// wirePhases is what the measured phases observed.
type wirePhases struct {
	pacedFrames int
	interval    time.Duration
	t0          time.Time
	lags        []time.Duration
	writeTime   time.Duration
	encodeTime  time.Duration
	encoded     int
	cpuMarks    []cpuMark // sdsd CPU about once a second in the paced phase
	closedRates []float64 // samples/s per closed-loop slice
	overhead    float64
	scrapes     []time.Duration
}

// cpuMark is sdsd's CPU time after frames paced frames had been sent.
type cpuMark struct {
	at     time.Time
	cpu    time.Duration
	frames int
}

// quietSeconds returns sdsd's CPU ns per sample in the quietest quarter of
// the paced phase's slices between marks at least half a second apart,
// and those slices' spans of time.
func (ph *wirePhases) quietSeconds() (cpuNS []float64, spans [][2]time.Time) {
	var all []float64
	var allSpans [][2]time.Time
	for i := 1; i < len(ph.cpuMarks); i++ {
		a, b := ph.cpuMarks[i-1], ph.cpuMarks[i]
		if b.at.Sub(a.at) >= time.Second/2 && b.frames > a.frames {
			all = append(all, float64(b.cpu-a.cpu)/float64((b.frames-a.frames)*frameSamples))
			allSpans = append(allSpans, [2]time.Time{a.at, b.at})
		}
	}
	for _, k := range quietest(all) {
		cpuNS = append(cpuNS, all[k])
		spans = append(spans, allSpans[k])
	}
	return cpuNS, spans
}

// closedSlice is the closed-loop phase's measurement slice. A traced run
// records spans in odd slices only and compares the two kinds' rates.
const closedSlice = 250 * time.Millisecond

// due returns when connection c's k-th paced frame was due. The two
// connections are offset by half an interval so their writes interleave.
func (ph *wirePhases) due(c, k int) time.Time {
	return ph.t0.Add(time.Duration(k)*ph.interval + time.Duration(c)*ph.interval/2)
}

// runPaced is the open-loop phase: every frame goes out on its schedule,
// late frames are caught up in bursts of at most writeFrames, never
// skipped. One goroutine paces both connections so at most one P sits in
// nanosleep while the other serves the alarm readers.
func runPaced(inst *wireInstance, ph *wirePhases, tr *tracer) error {
	conns := inst.conns
	next := make([]int, len(conns))
	phase := tr.begin(-1, -1, "wire.paced", "")
	defer tr.end(phase)
	markAt := ph.t0
	mark := func() error {
		cpu, err := procCPU(inst.proc.pid())
		if err != nil {
			return err
		}
		ph.cpuMarks = append(ph.cpuMarks, cpuMark{at: time.Now(), cpu: cpu, frames: next[0] + next[1]})
		markAt = markAt.Add(time.Second)
		return nil
	}
	if err := mark(); err != nil {
		return err
	}
	if tr != nil {
		// A traced run scrapes /metricsz once a second during this phase.
		stop := make(chan struct{})
		scraped := make(chan error, 1)
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					scraped <- nil
					return
				case <-tick.C:
				}
				start := time.Now()
				if _, err := inst.proc.metricsz(); err != nil {
					scraped <- err
					return
				}
				end := time.Now()
				tr.record(-1, phase, "server.metrics_scrape", "http", start, end)
				ph.scrapes = append(ph.scrapes, end.Sub(start))
			}
		}()
		defer func() {
			close(stop)
			if err := <-scraped; err != nil {
				fmt.Fprintln(os.Stderr, "sdsbench: /metricsz scrape:", err)
			}
		}()
	}
	for {
		c := -1
		for i := range conns {
			if next[i] < ph.pacedFrames && (c < 0 || ph.due(i, next[i]).Before(ph.due(c, next[c]))) {
				c = i
			}
		}
		if c < 0 {
			return mark()
		}
		if !time.Now().Before(markAt) {
			if err := mark(); err != nil {
				return err
			}
		}
		conn := conns[c]
		encStart := time.Now()
		conn.buf = conn.stream.appendFrames(conn.buf[:0], conn.csv, conn.frames, 1)
		ph.encodeTime += time.Since(encStart)
		sleepUntil(ph.due(c, next[c]))
		now := time.Now()
		m := 1
		for next[c]+m < ph.pacedFrames && m < writeFrames && !ph.due(c, next[c]+m).After(now) {
			m++
		}
		if m > 1 {
			encStart := time.Now()
			conn.buf = conn.stream.appendFrames(conn.buf, conn.csv, conn.frames+1, m-1)
			ph.encodeTime += time.Since(encStart)
		}
		for k := next[c]; k < next[c]+m; k++ {
			ph.lags = append(ph.lags, now.Sub(ph.due(c, k)))
		}
		ws := time.Now()
		if _, err := conn.conn.Write(conn.buf); err != nil {
			return err
		}
		we := time.Now()
		ph.writeTime += we.Sub(ws)
		tr.record(conn.trace, phase, "client.write", "paced", ws, we)
		conn.frames += m
		next[c] += m
		ph.encoded += m * frameSamples
	}
}

// runClosed is the closed-loop phase: each connection writes as fast as
// TCP backpressure lets it until the deadline, then ends its stream and
// waits for its done line. Once the socket buffers fill, the write rate
// is the rate sdsd ingests at; it is recorded per closedSlice.
func runClosed(inst *wireInstance, ph *wirePhases, dur time.Duration, tr *tracer) error {
	phase := tr.begin(-1, -1, "wire.closed", "")
	defer tr.end(phase)
	slices := int(dur / closedSlice)
	frames := make([][]int, len(inst.conns)) // per connection, per slice
	errs := make([]error, len(inst.conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(slices) * closedSlice)
	for i, c := range inst.conns {
		frames[i] = make([]int, slices)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ws := time.Now()
				if !ws.Before(deadline) {
					break
				}
				slice := int(ws.Sub(start) / closedSlice)
				e, err := c.send(writeFrames)
				we := time.Now()
				if err != nil {
					errs[i] = err
					return
				}
				if slice%2 == 1 {
					tr.record(c.trace, phase, "client.write", "closed", ws, we)
				}
				c.encodeTime += e
				frames[i][slice] += writeFrames
			}
			errs[i] = c.finish()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var even, odd []float64
	for s := 0; s < slices; s++ {
		n := 0
		for i := range frames {
			n += frames[i][s]
		}
		rate := float64(n*frameSamples) / closedSlice.Seconds()
		ph.closedRates = append(ph.closedRates, rate)
		if s%2 == 0 {
			even = append(even, rate)
		} else {
			odd = append(odd, rate)
		}
	}
	for _, c := range inst.conns {
		ph.encodeTime += c.encodeTime
		ph.encoded += (c.frames - setupFrames - ph.pacedFrames) * frameSamples
	}
	if tr != nil && len(odd) > 0 {
		ph.overhead = median(even)/median(odd) - 1
	}
	return nil
}

// runWire runs the wire-bin or wire-csv workload.
func runWire(cfg *runConfig, enc wireEncoding) (*result, *layerRun, error) {
	r := newResult()
	tr, csv, rate := cfg.tr, enc.csv, enc.rate
	setups := wireSetups
	if cfg.quick {
		rate /= 10
		setups = 2
	}
	pacedDur := time.Duration(cfg.seconds * 3 / 4 * float64(time.Second))
	closedDur := time.Duration(cfg.seconds*float64(time.Second)) - pacedDur

	genStart := time.Now()
	streams := make([]*wireStream, wireVMs)
	for i := range streams {
		s, err := renderWireStream(cfg.seed, i, enc.off)
		if err != nil {
			return nil, nil, err
		}
		streams[i] = s
	}
	genDur := time.Since(genStart)

	var inst *wireInstance
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = setupWire(cfg.sdsd, streams, csv, tr); err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, inst.setup.Seconds())
	}
	defer inst.proc.stop()

	ph := &wirePhases{interval: time.Duration(float64(time.Second) * frameSamples * wireVMs / rate)}
	ph.pacedFrames = max(1, int(math.Round(rate/wireVMs*pacedDur.Seconds()/frameSamples)))
	ph.t0 = time.Now().Add(time.Millisecond)
	if err := runPaced(inst, ph, tr); err != nil {
		return nil, nil, err
	}
	pacedEnd := time.Now()
	if err := runClosed(inst, ph, closedDur, tr); err != nil {
		return nil, nil, err
	}
	bytesPerVM, err := probeMemory(inst, streams, csv)
	if err != nil {
		return nil, nil, err
	}
	vms, err := inst.proc.metricsz()
	if err != nil {
		return nil, nil, err
	}
	hwm, err := procStatusKB(inst.proc.pid(), "VmHWM")
	if err != nil {
		return nil, nil, err
	}

	// Accounting: every sample sent must be in a done line, none
	// quarantined or dropped.
	for _, c := range inst.conns {
		sent := int64(c.frames) * frameSamples
		r.Attempted += sent
		if lost := sent - c.doneSamples; lost > 0 {
			r.Failed += lost
		}
		r.Failed += c.dropped + int64(vms[c.vm].Quarantined)
		if c.doneSamples != sent {
			r.mismatch("%s: sent %d samples, done line accounted %d", c.vm, sent, c.doneSamples)
		}
	}

	// Alarm latency: from the due time of the paced frame holding the
	// alarm's sample until the client read the alarm line, for frames due
	// in the quietest seconds.
	cpuSlices, quiet := ph.quietSeconds()
	var lat []float64
	var alarms int
	for ci, c := range inst.conns {
		alarms += len(c.alarms)
		for _, a := range c.alarms {
			f := (int(math.Round(a.t*samplesPerSecond))-1)/frameSamples - setupFrames
			if f < 0 || f >= ph.pacedFrames {
				continue
			}
			due := ph.due(ci, f)
			for _, s := range quiet {
				if !due.Before(s[0]) && due.Before(s[1]) {
					lat = append(lat, float64(a.recv.Sub(due))/float64(time.Millisecond))
					break
				}
			}
		}
	}
	if len(lat) == 0 {
		return nil, nil, fmt.Errorf("no alarms were raised in the paced phase")
	}
	pacedSamples := float64(ph.pacedFrames * frameSamples * wireVMs)
	cpuNS := median(cpuSlices)
	setup, n := quietMedian(setupTimes)
	r.set("setup_s", "s", setup, n)
	secPerSample := make([]float64, len(ph.closedRates))
	for i, rate := range ph.closedRates {
		secPerSample[i] = 1 / rate
	}
	cost, n := quietMedian(secPerSample)
	r.set("sps", "samples/s", 1/cost, n)
	r.set("cpu_ns_per_sample", "ns", cpuNS, len(cpuSlices))
	r.set("latency_p50_ms", "ms", percentile(lat, 0.50), len(lat))
	r.set("latency_p90_ms", "ms", percentile(lat, 0.90), len(lat))
	r.set("latency_p99_ms", "ms", percentile(lat, 0.99), len(lat))
	r.set("bytes_per_vm", "B", bytesPerVM, wireProbeVMs)
	r.set("rss_mb", "MB", float64(hwm)/1024, 1)
	lags := durations(ph.lags, time.Millisecond)
	lagP99 := percentile(lags, 0.99)
	r.set("client.send_lag_p99_ms", "ms", lagP99, len(lags))
	r.set("client.write_blocked_frac", "ratio", ph.writeTime.Seconds()/pacedEnd.Sub(ph.t0).Seconds(), 0)
	r.set("wire.paced_rate", "samples/s", pacedSamples/pacedEnd.Sub(ph.t0).Seconds(), 0)
	r.set("wire.alarms", "count", float64(alarms), 0)
	if lagP99 >= r.Metrics["latency_p50_ms"].Value {
		fmt.Fprintf(os.Stderr, "sdsbench: %s: generator send lag p99 %.3f ms ≥ alarm latency p50; latency figures are not trustworthy on this host\n",
			enc.name, lagP99)
	}

	pinSamples := wireProfileSeconds*samplesPerSecond + enc.pinLoops*wireSegmentSeconds*samplesPerSecond
	if err := checkWireAlarms(r, inst.conns, streams, pinSamples); err != nil {
		return nil, nil, err
	}

	lr := &layerRun{
		genNS:    float64(genDur+ph.encodeTime) / float64(ph.encoded+wireVMs*len(streams[0].rendered)),
		cpuNS:    cpuNS,
		scrapes:  ph.scrapes,
		overhead: ph.overhead,
		attributedNS: func(ln layerNumbers) float64 {
			if csv {
				return ln.netRecvNS + ln.csvParseNS + ln.observeBatchNS
			}
			return ln.netRecvNS + ln.binScanNS + ln.observeBatchNS
		},
	}
	if tr != nil {
		n := wireCorpusSamples
		if cfg.quick {
			n /= 10
		}
		for _, s := range streams {
			samples := make([]pcm.Sample, n)
			for k := range samples {
				samples[k] = s.sample(k)
			}
			lr.corpus = append(lr.corpus, corpusStream{app: workload.KMeans, scheme: "sds", profile: wireProfileSeconds, samples: samples})
		}
	}
	return r, lr, nil
}

// checkWireAlarms is the wire oracle: replay each connection's exact
// sample sequence through an in-process server.NewSession and require the
// identical (t, detector, metric) alarm sequence. When both streams got
// past their first pinSamples samples it also digests the alarms there.
func checkWireAlarms(r *result, conns []*wireConn, streams []*wireStream, pinSamples int) error {
	type replay struct {
		alarms []detect.Alarm
		err    error
	}
	out := make([]replay, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := server.NewSession(server.StreamSpec{VM: c.vm, App: workload.KMeans, Scheme: "sds",
				ProfileSeconds: wireProfileSeconds,
				OnAlarm:        func(a detect.Alarm) error { out[i].alarms = append(out[i].alarms, a); return nil }})
			if err != nil {
				out[i].err = err
				return
			}
			for f := 0; f < c.frames; f++ {
				if _, err := sess.ObserveBatch(streams[i].frame(f)); err != nil {
					out[i].err = err
					return
				}
			}
			_, out[i].err = sess.Close()
		}()
	}
	wg.Wait()
	h := fnv.New64a()
	pinned := true
	for i, c := range conns {
		pinned = pinned && c.frames*frameSamples >= pinSamples
		if out[i].err != nil {
			return fmt.Errorf("replaying %s: %w", c.vm, out[i].err)
		}
		want := out[i].alarms
		if len(want) != len(c.alarms) {
			r.mismatch("%s: sdsd raised %d alarms, in-process replay %d", c.vm, len(c.alarms), len(want))
		}
		for k := 0; k < min(len(want), len(c.alarms)); k++ {
			a, w := c.alarms[k], want[k]
			if a.t != w.T || a.detector != w.Detector || a.metric != w.Metric.String() {
				r.mismatch("%s: alarm %d is (%v %s %s) over the wire, (%v %s %s) in replay",
					c.vm, k, a.t, a.detector, a.metric, w.T, w.Detector, w.Metric)
				break
			}
		}
		for _, w := range want {
			if w.T <= sampleT(pinSamples-1) {
				hashAlarm(h, i, w)
			}
		}
	}
	if pinned {
		r.Digest = fmt.Sprintf("%016x", h.Sum64())
	}
	return nil
}

// hashAlarm folds one alarm of stream vm into an FNV-1a digest.
func hashAlarm(h io.Writer, vm int, a detect.Alarm) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(vm))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(a.T))
	h.Write(b[:])
	io.WriteString(h, a.Detector)
	io.WriteString(h, "\x00"+a.Metric.String()+"\x00")
}
