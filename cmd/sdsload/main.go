// Command sdsload replays N simulated VM telemetry streams against a
// running sdsd and reports aggregate throughput — a load generator and
// smoke-test client in one.
//
// Each simulated VM reuses the `detectd -record` replay path (same app
// models, same attack schedules, deterministic per-VM seeds), so a given
// flag set always produces the same streams. With -attack-at every VM
// comes under attack mid-stream and -expect-alarms turns the run into an
// assertion: the exit status is non-zero when any stream loses samples or
// raises fewer alarms than expected.
//
//	# 32 clean VM streams
//	sdsload -addr 127.0.0.1:7031 -vms 32 -seconds 120 -profile-seconds 60
//
//	# attacked streams; fail unless every VM alarms
//	sdsload -addr 127.0.0.1:7031 -vms 8 -seconds 180 -profile-seconds 60 \
//	        -attack-at 120 -expect-alarms 1
//
//	# 10k binary-frame streams, pre-rendered so the measured window is
//	# pure ingest
//	sdsload -addr 127.0.0.1:7031 -vms 10000 -seconds 30 -profile-seconds 15 \
//	        -frames bin -prebuild
//
//	# 100k streams from 2 load processes (one GOMAXPROCS-bound sdsload
//	# cannot saturate a sharded server), rotating across loopback
//	# addresses so no single 4-tuple space runs out of ephemeral ports,
//	# -inflight bounding concurrent sockets under RLIMIT_NOFILE
//	sdsload -addr 127.0.0.1:7031,127.0.0.2:7031 -vms 100000 -procs 2 \
//	        -seconds 20 -profile-seconds 10 -frames bin -inflight 6000
//
// With -procs N the run re-executes itself into N worker processes, each
// owning a contiguous slice of the VM index space. Workers prebuild and
// pre-dial, report readiness over a shared pipe, block on a start pipe the
// parent closes to broadcast the go signal, and report their accounting
// back over the shared pipe; the parent merges the numbers and measures
// the wall clock from the broadcast to the last report — the same measured
// window a single process has.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/memdos/sds/internal/server"
)

// config is one sdsload run's full parameter set.
type config struct {
	addr           string
	addrs          []string // addr split on commas; VM i dials addrs[i%len]
	network        string   // tcp or unix
	app            string
	scheme         string
	frames         string // csv or bin
	vms            int
	seconds        float64
	profileSeconds float64
	attackAt       float64
	attackStrategy string // evasive strategy name ("" = steady)
	seed           uint64 // VM i streams with seed+i
	expectAlarms   int
	retries        int
	prebuild       bool // render every stream before the clock starts
	inflight       int  // max concurrent streams per process (0 = all)
	procs          int  // worker processes (1 = in-process)
	workerID       int  // ≥0: this process is worker workerID of procs
}

// fdHeadroom pads the fd budget past one fd per stream: pipes, listeners,
// profile outputs, stdio.
const fdHeadroom = 256

const (
	framesCSV = "csv"
	framesBin = "bin"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7031", "sdsd stream address")
	flag.StringVar(&cfg.network, "network", "tcp", "stream network: tcp or unix")
	flag.IntVar(&cfg.vms, "vms", 8, "number of concurrent VM streams")
	flag.Float64Var(&cfg.seconds, "seconds", 120, "virtual seconds of telemetry per VM")
	flag.Float64Var(&cfg.profileSeconds, "profile-seconds", 60, "Stage-1 profile window sent in the handshake")
	flag.StringVar(&cfg.app, "app", "kmeans", "application model for the simulated VMs")
	flag.StringVar(&cfg.scheme, "scheme", "sds", "detection scheme sent in the handshake")
	flag.StringVar(&cfg.frames, "frames", framesCSV, "stream encoding: csv or bin")
	flag.Float64Var(&cfg.attackAt, "attack-at", 0, "start a bus-locking attack at this stream time (0 = none)")
	flag.StringVar(&cfg.attackStrategy, "attack-strategy", "", "evasive attacker strategy: steady, duty-cycle, period-mimic, slow-ramp, coordinated or reprofile-timed (default steady)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "base seed; VM i streams with seed+i")
	flag.IntVar(&cfg.expectAlarms, "expect-alarms", 0, "fail unless every VM raises at least this many alarms")
	flag.IntVar(&cfg.retries, "connect-retries", 10, "connection attempts per VM (100ms apart) before giving up")
	flag.BoolVar(&cfg.prebuild, "prebuild", false, "render every stream to memory first so the timed window measures ingest, not sample generation")
	flag.IntVar(&cfg.inflight, "inflight", 0, "max concurrent streams per process, 0 = all at once (bounds open sockets when -vms exceeds the fd limit)")
	flag.IntVar(&cfg.procs, "procs", 1, "split the run across this many load processes (re-execs itself)")
	flag.IntVar(&cfg.workerID, "worker-id", -1, "internal: this process is one -procs worker (set by the parent)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdsload:", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}
	if err := run(cfg); err != nil {
		pprof.StopCPUProfile()
		fmt.Fprintln(os.Stderr, "sdsload:", err)
		os.Exit(1)
	}
}

// vmResult is one stream's outcome.
type vmResult struct {
	vm      string
	sent    int
	samples int // samples the server accounted for in its done line
	alarms  int
	err     error
}

// body is one VM's pre-rendered stream.
type body struct {
	data []byte
	n    int // samples encoded in data
}

func run(cfg config) error {
	if cfg.vms <= 0 {
		return fmt.Errorf("need at least one VM stream, got %d", cfg.vms)
	}
	if cfg.frames != framesCSV && cfg.frames != framesBin {
		return fmt.Errorf("unknown -frames value %q (want csv or bin)", cfg.frames)
	}
	if cfg.prebuild && cfg.inflight > 0 {
		return fmt.Errorf("-prebuild pre-dials every stream; it cannot honor an -inflight socket bound")
	}
	cfg.addrs = strings.Split(cfg.addr, ",")
	if cfg.procs > 1 && cfg.workerID >= 0 {
		return runWorker(cfg)
	}
	// Fail on a short fd budget before dialing, not 28k dials in. The
	// whole budget is checked even in parent mode: workers inherit the
	// raised limit, and each needs only its share of it. An -inflight
	// bound caps the budget regardless of -vms.
	perProc := cfg.vms / max(cfg.procs, 1)
	if cfg.inflight > 0 && cfg.inflight < perProc {
		perProc = cfg.inflight
	}
	if _, err := server.EnsureFDLimit(uint64(perProc) + fdHeadroom); err != nil {
		return fmt.Errorf("%v (%d concurrent streams per process need that many open files; raise ulimit -n, lower -vms or bound -inflight)", err, perProc)
	}
	if cfg.procs > 1 {
		return runParent(cfg)
	}

	bodies, conns, cleanup, err := prepare(cfg, 0, cfg.vms)
	defer cleanup()
	if err != nil {
		return err
	}

	start := time.Now()
	results := streamRange(cfg, 0, cfg.vms, bodies, conns)
	elapsed := time.Since(start)

	t := tally(cfg, results)
	report(cfg, t, elapsed)
	if t.Failures > 0 {
		return fmt.Errorf("%d of %d streams failed", t.Failures, cfg.vms)
	}
	return nil
}

// streamTally is merged accounting for a set of streams.
type streamTally struct {
	Sent     int `json:"sent"`
	Samples  int `json:"samples"`
	Alarms   int `json:"alarms"`
	Failures int `json:"failures"`
}

// report prints the run's summary line.
func report(cfg config, t streamTally, elapsed time.Duration) {
	fmt.Printf("sdsload: %d VMs, %d samples in %.2fs (%.0f samples/sec), %d alarms\n",
		cfg.vms, t.Samples, elapsed.Seconds(), float64(t.Samples)/elapsed.Seconds(), t.Alarms)
}

// prepare renders and pre-dials global VM indices [lo,hi) when -prebuild
// is set (index i's body and conn land at slot i-lo). Always returns a
// runnable cleanup.
//
// -prebuild trades memory for a clean measurement: every stream is
// rendered — and every connection dialed — before the clock starts, so
// the timed window contains only the handshakes, the encoded transport,
// and server-side ingest. Dialing up front matters at 10k streams: a
// cold connect storm overflows the accept backlog and the resulting
// SYN retransmits would otherwise dominate the measured window.
func prepare(cfg config, lo, hi int) (bodies []body, conns []net.Conn, cleanup func(), err error) {
	cleanup = func() {}
	if !cfg.prebuild {
		return nil, nil, cleanup, nil
	}
	n := hi - lo
	bodies = make([]body, n)
	for i := range bodies {
		b, err := renderStream(cfg, cfg.seed+uint64(lo+i))
		if err != nil {
			return nil, nil, cleanup, fmt.Errorf("prebuilding stream %d: %w", lo+i, err)
		}
		bodies[i] = b
	}
	conns = make([]net.Conn, n)
	cleanup = func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	var dialErr error
	var mu sync.Mutex
	var dwg sync.WaitGroup
	// Bound the dial burst: 100k goroutines all in connect(2) at once melt
	// the loopback accept path; ~512 in flight keeps the backlog honest.
	sem := make(chan struct{}, 512)
	for i := 0; i < n; i++ {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := dialRetry(cfg.network, cfg.dialAddr(lo+i), cfg.retries)
			if err != nil {
				mu.Lock()
				dialErr = err
				mu.Unlock()
				return
			}
			conns[i] = c
		}(i)
	}
	dwg.Wait()
	if dialErr != nil {
		return bodies, conns, cleanup, fmt.Errorf("pre-dialing %d streams: %w", n, dialErr)
	}
	return bodies, conns, cleanup, nil
}

// streamRange runs global VM indices [lo,hi) concurrently. With
// cfg.inflight > 0 at most that many streams hold sockets at once: the
// semaphore wraps each stream's dial-to-close lifetime, so a 100k-VM run
// rolls through a bounded window of connections instead of needing 100k
// file descriptors at its peak.
func streamRange(cfg config, lo, hi int, bodies []body, conns []net.Conn) []vmResult {
	results := make([]vmResult, hi-lo)
	var sem chan struct{}
	if cfg.inflight > 0 {
		sem = make(chan struct{}, cfg.inflight)
	}
	var wg sync.WaitGroup
	for i := lo; i < hi; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			vm := fmt.Sprintf("load-%05d", i)
			var pre *body
			var conn net.Conn
			if cfg.prebuild {
				pre, conn = &bodies[i-lo], conns[i-lo]
			}
			results[i-lo] = streamVM(cfg, vm, cfg.seed+uint64(i), pre, conn, cfg.dialAddr(i))
		}(i)
	}
	wg.Wait()
	return results
}

// tally merges stream results, reporting each failure to stderr.
func tally(cfg config, results []vmResult) streamTally {
	var t streamTally
	for _, r := range results {
		switch {
		case r.err != nil:
			t.Failures++
			fmt.Fprintf(os.Stderr, "sdsload: %s: %v\n", r.vm, r.err)
		case r.samples != r.sent:
			t.Failures++
			fmt.Fprintf(os.Stderr, "sdsload: %s: sent %d samples, server accounted %d — samples lost\n", r.vm, r.sent, r.samples)
		case r.alarms < cfg.expectAlarms:
			t.Failures++
			fmt.Fprintf(os.Stderr, "sdsload: %s: %d alarms, expected at least %d\n", r.vm, r.alarms, cfg.expectAlarms)
		}
		t.Sent += r.sent
		t.Samples += r.samples
		t.Alarms += r.alarms
	}
	return t
}

// dialAddr rotates VM streams across the comma-separated -addr list. At
// 100k connections to a single ip:port the client side runs out of
// ephemeral ports (~28k per 4-tuple, and TIME_WAIT holds freed ones
// across back-to-back passes), so the fleet spreads its connections over
// several destination addresses — e.g. 127.0.0.1..8 all reaching one
// wildcard-bound sdsd.
func (c *config) dialAddr(i int) string { return c.addrs[i%len(c.addrs)] }

// runWorker is one -procs worker process: prepare the slice, report
// readiness on the shared done pipe (fd 4), block until the parent closes
// the start pipe (fd 3) to broadcast the go signal, stream, and report the
// tally as one JSON line. Lines stay far under PIPE_BUF, so concurrent
// workers' writes never interleave. Stream-level failures travel in the
// tally (exit 0); a non-zero exit means the worker's infrastructure broke.
func runWorker(cfg config) error {
	if cfg.procs < 1 || cfg.workerID >= cfg.procs {
		return fmt.Errorf("bad worker geometry: worker %d of %d", cfg.workerID, cfg.procs)
	}
	startPipe := os.NewFile(3, "start-pipe")
	donePipe := os.NewFile(4, "done-pipe")
	if startPipe == nil || donePipe == nil {
		return fmt.Errorf("worker started without rendezvous pipes (use -procs, not -worker-id)")
	}
	lo := cfg.workerID * cfg.vms / cfg.procs
	hi := (cfg.workerID + 1) * cfg.vms / cfg.procs
	bodies, conns, cleanup, err := prepare(cfg, lo, hi)
	defer cleanup()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(donePipe, "ready %d\n", cfg.workerID); err != nil {
		return fmt.Errorf("reporting ready: %w", err)
	}
	if _, err := io.ReadAll(startPipe); err != nil {
		return fmt.Errorf("waiting for start: %w", err)
	}
	t := tally(cfg, streamRange(cfg, lo, hi, bodies, conns))
	line, err := json.Marshal(t)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(donePipe, "done %d %s\n", cfg.workerID, line); err != nil {
		return fmt.Errorf("reporting done: %w", err)
	}
	return nil
}

// runParent re-executes this binary into cfg.procs workers and merges
// their accounting. The measured window opens when the last worker reports
// ready (the parent then closes the start pipe — one close broadcasts to
// every worker at once) and closes when the last done line arrives: the
// same window a single process measures, without any worker-start skew.
func runParent(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	startR, startW, err := os.Pipe()
	if err != nil {
		return err
	}
	doneR, doneW, err := os.Pipe()
	if err != nil {
		return err
	}
	cmds := make([]*exec.Cmd, cfg.procs)
	for i := range cmds {
		cmd := exec.Command(exe, workerArgs(cfg, i)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = []*os.File{startR, doneW} // worker fds 3 and 4
		if err := cmd.Start(); err != nil {
			startW.Close()
			for _, c := range cmds[:i] {
				c.Process.Kill()
			}
			return fmt.Errorf("starting worker %d: %w", i, err)
		}
		cmds[i] = cmd
	}
	// Drop the parent's pipe copies: the workers must see EOF on the start
	// pipe when startW closes, and the done reader must see EOF when the
	// last worker exits.
	startR.Close()
	doneW.Close()

	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(doneR)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	type workerExit struct {
		id  int
		err error
	}
	exits := make(chan workerExit, cfg.procs)
	for i, cmd := range cmds {
		go func(i int, cmd *exec.Cmd) { exits <- workerExit{i, cmd.Wait()} }(i, cmd)
	}

	var t streamTally
	var start time.Time
	var elapsed time.Duration
	ready, done, exited := 0, 0, 0
	for done < cfg.procs {
		select {
		case line, ok := <-lines:
			if !ok {
				return fmt.Errorf("workers exited before reporting (%d/%d done)", done, cfg.procs)
			}
			switch kind, rest, _ := strings.Cut(line, " "); kind {
			case "ready":
				ready++
				if ready == cfg.procs {
					start = time.Now()
					startW.Close() // broadcast: go
				}
			case "done":
				_, payload, _ := strings.Cut(rest, " ")
				var wt streamTally
				if err := json.Unmarshal([]byte(payload), &wt); err != nil {
					return fmt.Errorf("bad worker report %q: %w", line, err)
				}
				t.Sent += wt.Sent
				t.Samples += wt.Samples
				t.Alarms += wt.Alarms
				t.Failures += wt.Failures
				done++
				if done == cfg.procs {
					elapsed = time.Since(start)
				}
			default:
				return fmt.Errorf("bad worker report %q", line)
			}
		case ex := <-exits:
			exited++
			if ex.err != nil {
				// Infrastructure failure (prepare, pipes): the other workers
				// are blocked on the start pipe and will never finish.
				for _, c := range cmds {
					c.Process.Kill()
				}
				return fmt.Errorf("worker %d: %v", ex.id, ex.err)
			}
		}
	}
	for exited < cfg.procs {
		if ex := <-exits; ex.err != nil {
			return fmt.Errorf("worker %d: %v", ex.id, ex.err)
		} else {
			exited++
		}
	}

	report(cfg, t, elapsed)
	if t.Failures > 0 {
		return fmt.Errorf("%d of %d streams failed", t.Failures, cfg.vms)
	}
	return nil
}

// workerArgs rebuilds the flag set for worker i. -cpuprofile stays with
// the parent.
func workerArgs(cfg config, i int) []string {
	args := []string{
		"-addr", cfg.addr,
		"-network", cfg.network,
		"-vms", strconv.Itoa(cfg.vms),
		"-seconds", fmt.Sprintf("%g", cfg.seconds),
		"-profile-seconds", fmt.Sprintf("%g", cfg.profileSeconds),
		"-app", cfg.app,
		"-scheme", cfg.scheme,
		"-frames", cfg.frames,
		"-attack-at", fmt.Sprintf("%g", cfg.attackAt),
		"-attack-strategy", cfg.attackStrategy,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-expect-alarms", strconv.Itoa(cfg.expectAlarms),
		"-connect-retries", strconv.Itoa(cfg.retries),
		"-inflight", strconv.Itoa(cfg.inflight),
		"-procs", strconv.Itoa(cfg.procs),
		"-worker-id", strconv.Itoa(i),
	}
	if cfg.prebuild {
		args = append(args, "-prebuild")
	}
	return args
}

// spec builds the deterministic replay spec for one VM.
func spec(cfg config, seed uint64) server.ReplaySpec {
	return server.ReplaySpec{
		App:      cfg.app,
		Seconds:  cfg.seconds,
		AttackAt: cfg.attackAt,
		Strategy: cfg.attackStrategy,
		Seed:     seed,
	}
}

// renderStream encodes one VM's full stream into memory.
func renderStream(cfg config, seed uint64) (body, error) {
	var buf bytes.Buffer
	// Pre-size the body: growing a multi-MB buffer by doubling re-copies
	// it ~twice, which adds up across 10k prebuilt streams. The estimate
	// uses the Table 1 sampling interval (~100 samples per virtual second)
	// and each encoding's worst-case bytes per sample.
	est := int(cfg.seconds*100) + 128
	if cfg.frames == framesBin {
		buf.Grow(est*24 + est/1024*3 + 64)
	} else {
		buf.Grow(est * 48)
	}
	var n int
	var err error
	if cfg.frames == framesBin {
		n, err = server.WriteSimulatedStreamBinary(&buf, spec(cfg, seed))
	} else {
		n, err = server.WriteSimulatedStream(&buf, spec(cfg, seed))
	}
	return body{data: buf.Bytes(), n: n}, err
}

// streamVM runs one VM's full stream lifecycle against the server. With a
// pre-rendered body the telemetry is a single bulk write; otherwise the
// stream is generated and encoded on the fly. A non-nil conn (pre-dialed
// by run) is used as-is; otherwise streamVM dials its own.
func streamVM(cfg config, vm string, seed uint64, pre *body, conn net.Conn, addr string) vmResult {
	res := vmResult{vm: vm}
	if conn == nil {
		var err error
		conn, err = dialRetry(cfg.network, addr, cfg.retries)
		if err != nil {
			res.err = err
			return res
		}
	}
	defer conn.Close()

	// The handshake reply is validated synchronously before any telemetry is
	// sent: a server that rejects the handshake — or closes the connection
	// without replying at all — is a hard failure, not a stream that happens
	// to account zero samples.
	br := bufio.NewReaderSize(conn, 64*1024)
	hs := fmt.Sprintf("sds/1 vm=%s app=%s scheme=%s profile=%g", vm, cfg.app, cfg.scheme, cfg.profileSeconds)
	if cfg.frames == framesBin {
		hs += " frames=bin"
	}
	if _, err := fmt.Fprintf(conn, "%s\n", hs); err != nil {
		res.err = err
		return res
	}
	reply, err := br.ReadString('\n')
	if err != nil {
		res.err = fmt.Errorf("handshake reply: %w", err)
		return res
	}
	switch reply = strings.TrimSpace(reply); {
	case strings.HasPrefix(reply, "error: "):
		res.err = fmt.Errorf("server rejected handshake: %s", strings.TrimPrefix(reply, "error: "))
		return res
	case !strings.HasPrefix(reply, "ok "):
		res.err = fmt.Errorf("unexpected handshake reply %q", reply)
		return res
	case cfg.frames == framesBin && !strings.HasSuffix(reply, " frames=bin"):
		res.err = fmt.Errorf("server did not confirm binary frames: %q", reply)
		return res
	}

	// The server streams alarm lines inline, so read concurrently with the
	// write — an unread response buffer would backpressure our own stream.
	type doneInfo struct {
		samples, alarms int
		err             error
	}
	resp := make(chan doneInfo, 1)
	go func() {
		var d doneInfo
		d.samples = -1
		sc := bufio.NewScanner(br)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "alarm "):
				d.alarms++
			case strings.HasPrefix(line, "error: "):
				d.err = fmt.Errorf("server: %s", strings.TrimPrefix(line, "error: "))
			case strings.HasPrefix(line, "done "):
				for _, f := range strings.Fields(line)[1:] {
					if v, ok := strings.CutPrefix(f, "samples="); ok {
						d.samples, _ = strconv.Atoi(v)
					}
				}
			}
		}
		if d.err == nil {
			d.err = sc.Err()
		}
		resp <- d
	}()

	if pre != nil {
		if _, err := conn.Write(pre.data); err != nil {
			res.err = fmt.Errorf("streaming: %w", err)
			return res
		}
		res.sent = pre.n
	} else {
		var n int
		var err error
		if cfg.frames == framesBin {
			n, err = server.WriteSimulatedStreamBinary(conn, spec(cfg, seed))
		} else {
			n, err = server.WriteSimulatedStream(conn, spec(cfg, seed))
		}
		if err != nil {
			res.err = fmt.Errorf("streaming: %w", err)
			return res
		}
		res.sent = n
	}
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	d := <-resp
	res.alarms, res.samples = d.alarms, d.samples
	if d.err != nil {
		res.err = d.err
	} else if d.samples < 0 {
		res.err = fmt.Errorf("connection closed without a done line")
	}
	return res
}

// dialRetry connects with retries so sdsload can start before sdsd's
// listener is up (the smoke test launches both at once).
func dialRetry(network, addr string, retries int) (net.Conn, error) {
	var err error
	for i := 0; i < retries; i++ {
		var conn net.Conn
		if conn, err = net.Dial(network, addr); err == nil {
			return conn, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("connecting to %s %s: %w", network, addr, err)
}
