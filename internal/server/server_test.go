package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer launches a Server on a loopback TCP listener and returns it
// with its address; shutdown is handled by test cleanup.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s := New(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, l.Addr().String()
}

// doneLine holds the parsed end-of-stream summary a client receives.
type doneLine struct {
	vm                                  string
	samples, monitored, dropped, alarms int
}

// clientResult is everything a test client observed on its connection.
type clientResult struct {
	okLine     string
	alarmLines []string
	errorLines []string
	done       *doneLine
}

// runClient opens a stream connection, sends the handshake and body, half-
// closes the write side, and reads every response line until the server
// closes the connection.
func runClient(t *testing.T, addr, hs string, body []byte) clientResult {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res := readResponses(t, conn, func() {
		if _, err := fmt.Fprintf(conn, "%s\n", hs); err != nil {
			t.Errorf("handshake write: %v", err)
			return
		}
		if _, err := conn.Write(body); err != nil {
			t.Errorf("body write: %v", err)
			return
		}
		conn.(*net.TCPConn).CloseWrite()
	})
	return res
}

// readResponses runs send() while collecting response lines concurrently
// (the server streams alarms inline, so a client must read while writing).
func readResponses(t *testing.T, conn net.Conn, send func()) clientResult {
	t.Helper()
	var res clientResult
	lines := make(chan clientResult, 1)
	go func() {
		var r clientResult
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "ok "):
				r.okLine = line
			case strings.HasPrefix(line, "alarm "):
				r.alarmLines = append(r.alarmLines, strings.TrimPrefix(line, "alarm "))
			case strings.HasPrefix(line, "error: "):
				r.errorLines = append(r.errorLines, line)
			case strings.HasPrefix(line, "done "):
				d := parseDone(t, line)
				r.done = &d
			default:
				t.Errorf("unexpected response line %q", line)
			}
		}
		lines <- r
	}()
	send()
	select {
	case res = <-lines:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for server responses")
	}
	return res
}

func parseDone(t *testing.T, line string) doneLine {
	t.Helper()
	var d doneLine
	for _, f := range strings.Fields(line)[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("malformed done field %q in %q", f, line)
		}
		switch key {
		case "vm":
			d.vm = val
		default:
			n, err := strconv.Atoi(val)
			if err != nil {
				t.Fatalf("bad done field %q: %v", f, err)
			}
			switch key {
			case "samples":
				d.samples = n
			case "monitored":
				d.monitored = n
			case "dropped":
				d.dropped = n
			case "alarms":
				d.alarms = n
			}
		}
	}
	return d
}

// synthCSV renders samples [from, to) as a feed CSV body (with header).
func synthCSV(from, to int, tpcm, base float64) []byte {
	var b bytes.Buffer
	b.WriteString("t,access,miss\n")
	for i := from; i < to; i++ {
		s := synthSample(i, tpcm, base)
		fmt.Fprintf(&b, "%g,%g,%g\n", s.T, s.Access, s.Miss)
	}
	return b.Bytes()
}

// TestServerManyConcurrentStreams is the scale acceptance test: 32 VM
// streams at once, every sample accounted for, none lost. Run under -race
// in CI, it also proves the session-table locking.
func TestServerManyConcurrentStreams(t *testing.T) {
	const (
		vms     = 32
		tpcm    = 0.01
		total   = 4000 // 20 s profile + 20 s monitored per VM
		profile = 20.0
	)
	s, addr := startServer(t, Options{ProfileSeconds: profile})
	var wg sync.WaitGroup
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hs := fmt.Sprintf("sds/1 vm=race-%02d profile=%g", i, profile)
			res := runClient(t, addr, hs, synthCSV(0, total, tpcm, 100))
			if len(res.errorLines) > 0 {
				t.Errorf("vm %d: server errors: %v", i, res.errorLines)
			}
			if res.done == nil {
				t.Errorf("vm %d: no done line", i)
				return
			}
			if res.done.samples != total {
				t.Errorf("vm %d: server ingested %d of %d samples", i, res.done.samples, total)
			}
			if res.done.dropped != 0 {
				t.Errorf("vm %d: %d samples dropped", i, res.done.dropped)
			}
		}(i)
	}
	wg.Wait()
	m := s.Metrics()
	if m.TotalSamples != vms*total {
		t.Errorf("aggregate samples = %d, want %d", m.TotalSamples, vms*total)
	}
	if m.ActiveVMs != 0 {
		t.Errorf("%d VMs still active after all streams closed", m.ActiveVMs)
	}
	if len(m.VMs) != vms {
		t.Errorf("metrics report %d VMs, want %d", len(m.VMs), vms)
	}
}

// TestServerAlarmsOnAttackedStream: an attacked recorded stream produces
// alarm lines on the wire and alarm state in the ops surface.
func TestServerAlarmsOnAttackedStream(t *testing.T) {
	var stream bytes.Buffer
	n, err := WriteSimulatedStream(&stream, ReplaySpec{
		App: "kmeans", Seconds: 160, AttackAt: 100, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, Options{})
	res := runClient(t, addr, "sds/1 vm=victim app=kmeans scheme=sds profile=60", stream.Bytes())
	if len(res.errorLines) > 0 {
		t.Fatalf("server errors: %v", res.errorLines)
	}
	if res.done == nil || res.done.samples != n {
		t.Fatalf("done = %+v, want %d samples", res.done, n)
	}
	if len(res.alarmLines) == 0 {
		t.Fatal("no alarm lines for an attacked stream")
	}
	var ev AlarmEvent
	if err := json.Unmarshal([]byte(res.alarmLines[0]), &ev); err != nil {
		t.Fatalf("alarm line is not JSON: %v", err)
	}
	if ev.T <= 100 || ev.Detector == "" || ev.Reason == "" {
		t.Fatalf("implausible alarm event %+v", ev)
	}
	if res.done.alarms != len(res.alarmLines) {
		t.Errorf("done reports %d alarms, wire carried %d", res.done.alarms, len(res.alarmLines))
	}
	m := s.Metrics()
	if m.TotalAlarms == 0 {
		t.Error("ops surface reports zero alarms")
	}
}

// TestServerZooSchemesAlarmOnAttackedStream runs the detector-zoo schemes
// end to end over the wire: handshake with scheme=cusum/timefrag/ewmavar,
// stream an attacked telemetry replay, and require a structurally valid
// alarm after the attack onset plus a clean done line.
func TestServerZooSchemesAlarmOnAttackedStream(t *testing.T) {
	// k-means shifts its mean ±10% every ~150 s; the zoo detectors need a
	// profile spanning several phases (the experiment pipeline profiles
	// 2000 s) or the first post-profile phase change reads as an attack.
	// 500 s covers ≥3 phases.
	const profileSec = 500
	cases := []struct {
		scheme            string
		seconds, attackAt float64
	}{
		{scheme: "cusum", seconds: profileSec + 120, attackAt: profileSec + 60},
		{scheme: "timefrag", seconds: profileSec + 120, attackAt: profileSec + 60},
		// EWMAVar self-calibrates for ~82 s of window cadence after the
		// profile stage (variance burn-in plus Welford calibration) before
		// it can alarm, so its attack starts later in a longer stream.
		{scheme: "ewmavar", seconds: profileSec + 180, attackAt: profileSec + 120},
	}
	s, addr := startServer(t, Options{})
	for _, tc := range cases {
		t.Run(tc.scheme, func(t *testing.T) {
			var stream bytes.Buffer
			n, err := WriteSimulatedStream(&stream, ReplaySpec{
				App: "kmeans", Seconds: tc.seconds, AttackAt: tc.attackAt, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			hs := fmt.Sprintf("sds/1 vm=zoo-%s app=kmeans scheme=%s profile=%d", tc.scheme, tc.scheme, profileSec)
			res := runClient(t, addr, hs, stream.Bytes())
			if len(res.errorLines) > 0 {
				t.Fatalf("server errors: %v", res.errorLines)
			}
			if res.done == nil || res.done.samples != n {
				t.Fatalf("done = %+v, want %d samples", res.done, n)
			}
			if len(res.alarmLines) == 0 {
				t.Fatal("no alarm lines for an attacked stream")
			}
			// A 60 s profile of a phased app leaves the zoo detectors
			// prone to pre-onset false alarms at their default knobs (the
			// ROC tournament quantifies exactly that), so the wire test
			// requires a well-formed alarm during the attack rather than
			// a silent pre-onset stage.
			inAttack := false
			for _, line := range res.alarmLines {
				var ev AlarmEvent
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("alarm line is not JSON: %v", err)
				}
				if ev.Detector == "" || ev.Reason == "" || ev.T <= 0 {
					t.Fatalf("implausible alarm event %+v", ev)
				}
				if ev.T > tc.attackAt {
					inAttack = true
				}
			}
			if !inAttack {
				t.Fatalf("no alarm after the %v s attack onset: %v", tc.attackAt, res.alarmLines)
			}
			if res.done.alarms != len(res.alarmLines) {
				t.Errorf("done reports %d alarms, wire carried %d", res.done.alarms, len(res.alarmLines))
			}
		})
	}
	if m := s.Metrics(); m.TotalAlarms == 0 {
		t.Error("ops surface reports zero alarms")
	}
}

// TestServerGracefulDrain: samples accepted before Shutdown are all
// processed — the drain leaves no buffered sample behind.
func TestServerGracefulDrain(t *testing.T) {
	const (
		tpcm  = 0.01
		total = 2500 // 20 s profile + 5 s monitored
	)
	s, addr := startServer(t, Options{ProfileSeconds: 20})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res := readResponses(t, conn, func() {
		fmt.Fprintf(conn, "sds/1 vm=drain profile=20\n")
		if _, err := conn.Write(synthCSV(0, total, tpcm, 100)); err != nil {
			t.Errorf("body write: %v", err)
			return
		}
		// Do NOT close the write side: the stream is mid-flight when the
		// server shuts down. Wait until everything sent has been
		// processed, then drain.
		deadline := time.Now().Add(10 * time.Second)
		for s.Metrics().TotalSamples < total {
			if time.Now().After(deadline) {
				t.Errorf("server processed %d of %d samples before drain", s.Metrics().TotalSamples, total)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if res.done == nil {
		t.Fatal("no done line after drain")
	}
	if res.done.samples != total {
		t.Errorf("drained stream accounted %d of %d samples", res.done.samples, total)
	}
}

// TestServerCSVShutdownDrainsSocket: rows a CSV client has already sent
// when Shutdown starts sit unread in the socket's receive buffer, because
// the pump is busy (here: blocked in the log hook on a quarantined row).
// Shutdown's read interrupt must not drop them; the done line counts them
// all, as the event loop's drain does for binary streams.
func TestServerCSVShutdownDrainsSocket(t *testing.T) {
	const (
		tpcm   = 0.01
		before = 500
		after  = 1000 // written while the pump is blocked; ≈ 25 KB, well inside the receive buffer
	)
	blocked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s, addr := startServer(t, Options{ProfileSeconds: 20, Logf: func(format string, args ...any) {
		if strings.Contains(format, "quarantined malformed line") {
			once.Do(func() { close(blocked) })
			<-release
		}
	}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res := readResponses(t, conn, func() {
		fmt.Fprintf(conn, "sds/1 vm=csvdrain profile=20\n")
		conn.Write(synthCSV(0, before, tpcm, 100))
		conn.Write([]byte("not,a,row\n"))
		<-blocked
		body := synthCSV(before, before+after, tpcm, 100)
		body = body[bytes.IndexByte(body, '\n')+1:] // no second header
		if _, err := conn.Write(body); err != nil {
			t.Errorf("body write: %v", err)
		}
		time.Sleep(50 * time.Millisecond) // let the rows reach the server's socket
		shut := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			shut <- s.Shutdown(ctx)
		}()
		for !s.draining.Load() {
			time.Sleep(time.Millisecond)
		}
		// Shutdown arms the read deadlines under s.mu right after it sets
		// the draining flag.
		time.Sleep(50 * time.Millisecond)
		s.mu.Lock()
		s.mu.Unlock()
		close(release)
		if err := <-shut; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if res.done == nil {
		t.Fatal("no done line after drain")
	}
	if res.done.samples != before+after {
		t.Errorf("done counts %d samples, want %d: rows in the socket at shutdown were dropped", res.done.samples, before+after)
	}
}

// TestServerHandshakeErrors: malformed handshakes and duplicate VMs are
// rejected with error lines, not crashes.
func TestServerHandshakeErrors(t *testing.T) {
	_, addr := startServer(t, Options{ProfileSeconds: 20})
	for _, tt := range []struct {
		name, hs string
	}{
		{"bad magic", "nope vm=a"},
		{"missing vm", "sds/1 app=kmeans"},
		{"bad profile", "sds/1 vm=a profile=-3"},
		{"unknown field", "sds/1 vm=a color=red"},
		{"bad scheme", "sds/1 vm=a scheme=bogus"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			res := runClient(t, addr, tt.hs, nil)
			if len(res.errorLines) == 0 {
				t.Errorf("handshake %q accepted", tt.hs)
			}
		})
	}

	t.Run("duplicate vm", func(t *testing.T) {
		first, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer first.Close()
		fmt.Fprintf(first, "sds/1 vm=dup profile=20\n")
		// Make sure the first stream is registered before racing the
		// second connection against it.
		okLine := bufio.NewScanner(first)
		if !okLine.Scan() || !strings.HasPrefix(okLine.Text(), "ok ") {
			t.Fatalf("first stream not accepted: %q", okLine.Text())
		}
		res := runClient(t, addr, "sds/1 vm=dup profile=20", nil)
		if len(res.errorLines) == 0 {
			t.Error("duplicate active vm accepted")
		}
	})
}

// TestServerOpsSurface: /healthz flips to 503 on drain; /metricsz reports
// per-VM state.
func TestServerOpsSurface(t *testing.T) {
	s, addr := startServer(t, Options{ProfileSeconds: 20})
	res := runClient(t, addr, "sds/1 vm=web-1 app=kmeans profile=20", synthCSV(0, 2200, 0.01, 100))
	if res.done == nil || res.done.samples != 2200 {
		t.Fatalf("stream not ingested: %+v", res.done)
	}

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", rr.Code, rr.Body.String())
	}

	m := scrape(t, s)
	vm, ok := m.VMs["web-1"]
	if !ok {
		t.Fatalf("metricsz lacks vm web-1: %+v", m)
	}
	if vm.App != "kmeans" || vm.Scheme != "sds" || vm.Connected || vm.Profiling {
		t.Errorf("vm metrics = %+v", vm)
	}
	if got := vm.ProfileSamples + int(vm.Monitored); got != 2200 {
		t.Errorf("vm ingested %d, want 2200", got)
	}
	if m.TotalSamples != 2200 || m.SamplesPerSecond <= 0 {
		t.Errorf("aggregate = %+v", m)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 503 {
		t.Errorf("healthz after drain = %d, want 503", rr.Code)
	}
}

// TestServerInProcessStream: the in-process API runs the same lifecycle
// without a socket.
func TestServerInProcessStream(t *testing.T) {
	s := New(Options{ProfileSeconds: 20})
	st, err := s.OpenStream(StreamSpec{VM: "local-1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenStream(StreamSpec{VM: "local-1"}); err == nil {
		t.Error("duplicate in-process vm accepted")
	}
	for i := 0; i < 2500; i++ {
		if err := st.Observe(synthSample(i, 0.01, 100)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested() != 2500 {
		t.Errorf("ingested %d, want 2500", stats.Ingested())
	}
	if s.Metrics().TotalSamples != 2500 {
		t.Errorf("aggregate %d, want 2500", s.Metrics().TotalSamples)
	}
	// The slot frees on close: the VM can stream again.
	if _, err := s.OpenStream(StreamSpec{VM: "local-1"}); err != nil {
		t.Errorf("reopen after close: %v", err)
	}
}

// TestServerUnixSocket: the same protocol works over a unix socket.
func TestServerUnixSocket(t *testing.T) {
	dir := t.TempDir()
	sock := dir + "/sds.sock"
	s := New(Options{ProfileSeconds: 20})
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res := readResponses(t, conn, func() {
		fmt.Fprintf(conn, "sds/1 vm=ux profile=20\n")
		conn.Write(synthCSV(0, 2200, 0.01, 100))
		conn.(*net.UnixConn).CloseWrite()
	})
	if res.done == nil || res.done.samples != 2200 {
		t.Fatalf("unix stream done = %+v", res.done)
	}
}

// TestParseHandshake covers the wire-format grammar directly.
func TestParseHandshake(t *testing.T) {
	h, err := parseHandshake("sds/1 vm=web-1 app=facenet scheme=sdsp profile=300")
	if err != nil {
		t.Fatal(err)
	}
	if h.vm != "web-1" || h.app != "facenet" || h.scheme != "sdsp" || h.profileSeconds != 300 {
		t.Errorf("handshake = %+v", h)
	}
	if _, err := parseHandshake("sds/1 vm=a"); err != nil {
		t.Errorf("minimal handshake rejected: %v", err)
	}
	for _, bad := range []string{
		"", "sds/2 vm=a", "sds/1", "sds/1 vm=", "sds/1 profile=10",
		"sds/1 vm=a profile=zero", "sds/1 vm=a extra",
	} {
		if _, err := parseHandshake(bad); err == nil {
			t.Errorf("handshake %q accepted", bad)
		}
	}
}
