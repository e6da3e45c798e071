package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/memdos/sds/internal/faultinject"
	"github.com/memdos/sds/internal/feed"
)

// chaosClient streams a handshake and body through a fault-injecting
// connection wrapper while collecting the server's responses. Injected
// terminal faults (drop, write failure) are expected outcomes, not test
// errors.
func chaosClient(t *testing.T, addr, hs string, body []byte, f faultinject.Faults) clientResult {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := faultinject.Wrap(conn, f)
	return readResponses(t, conn, func() {
		payload := append([]byte(hs+"\n"), body...)
		if _, err := fc.Write(payload); err != nil &&
			!errors.Is(err, faultinject.ErrDrop) && !errors.Is(err, faultinject.ErrWriteFail) {
			t.Errorf("chaos write: %v", err)
			return
		}
		fc.CloseWrite()
	})
}

// oracleCounts replays the client's exact payload (handshake line included)
// through the fault schedule and the feed parser, returning the number of
// records the server must ingest and the lines it must quarantine.
func oracleCounts(t *testing.T, payload []byte, f faultinject.Faults) (ok, bad int) {
	t.Helper()
	damaged := faultinject.Apply(payload, f)
	i := bytes.IndexByte(damaged, '\n') // strip the handshake line
	r := feed.NewReader(bytes.NewReader(damaged[i+1:]))
	for {
		_, err := r.Next()
		if err == io.EOF {
			return ok, bad
		}
		var pe *feed.ParseError
		if errors.As(err, &pe) {
			bad++
			continue
		}
		if err != nil {
			t.Fatalf("oracle replay: %v", err)
		}
		ok++
	}
}

// waitDisconnected polls the ops surface until vm's stream has released its
// slot (or the deadline passes).
func waitDisconnected(t *testing.T, s *Server, vm string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, ok := s.Metrics().VMs[vm]; ok && !m.Connected {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("vm %s never released its slot", vm)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// attackedStream renders the canonical fixed-seed attacked stream (the same
// shape the golden transcript pins): 160 s of k-means telemetry with a bus
// locking attack from t=100 s, against a 60 s profile window.
func attackedStream(t *testing.T) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteSimulatedStream(&buf, ReplaySpec{App: "kmeans", Seconds: 160, AttackAt: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), n
}

// TestServerChaosSuite is the fault-injection acceptance test: several VM
// streams with per-VM deterministic fault schedules hit one server at a
// fixed seed, and every count the server reports must match the local
// oracle exactly — no sample lost on a surviving stream, every malformed
// line quarantined without killing its connection, every attacked VM that
// survives long enough still alarming.
func TestServerChaosSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite replays several full attacked streams")
	}
	body, n := attackedStream(t)
	const hsFmt = "sds/1 vm=%s app=kmeans scheme=%s profile=60"

	cases := []struct {
		vm       string
		scheme   string // detection scheme ("" = sds)
		faults   faultinject.Faults
		hasDone  bool // the client survives to read its done line
		mayMiss  bool // scheme is structurally unable to alarm on this stream
		wantDrop int  // records the schedule removes from the stream's tail
	}{
		{vm: "clean", faults: faultinject.Faults{}, hasDone: true},
		{vm: "corrupt", faults: faultinject.Faults{Seed: 101, SkipLines: 2, CorruptEvery: 9}, hasDone: true},
		{vm: "truncate", faults: faultinject.Faults{Seed: 102, SkipLines: 2, TruncateEvery: 51}, hasDone: true},
		{vm: "torn", faults: faultinject.Faults{Seed: 103, SkipLines: 2, PartialWriteMax: 7, StallEvery: 2000, Stall: 200 * time.Microsecond}, hasDone: true},
		// Every 401st line balloons past feed.MaxLineBytes: each must be
		// quarantined (oversized lines used to kill the whole stream) and
		// the samples around it must all survive.
		{vm: "oversize", faults: faultinject.Faults{Seed: 104, SkipLines: 2, OversizeEvery: 401}, hasDone: true},
		// Drops at t=120 s: 20 s into the attack, long past the first alarm.
		// The write side half-closes at the cut, so the done line (with the
		// abruptly shortened sample count) still reaches the client.
		{vm: "eof", faults: faultinject.Faults{SkipLines: 2, DropAfterLines: 12000}, hasDone: true},
		// The detector zoo rides the same damaged telemetry: each scheme
		// must quarantine identically and still alarm on the attacked
		// stream (possibly pre-onset — kmeans phases against a 60 s
		// profile look suspicious to these detectors, which is fine here;
		// the suite asserts ingest integrity, not tuning).
		{vm: "zoo-cusum", scheme: "cusum", faults: faultinject.Faults{Seed: 105, SkipLines: 2, CorruptEvery: 11}, hasDone: true},
		{vm: "zoo-timefrag", scheme: "timefrag", faults: faultinject.Faults{Seed: 106, SkipLines: 2, TruncateEvery: 47}, hasDone: true},
		// EWMAVar's post-profile Welford calibration spans 92–142 s of
		// this stream — across the 100 s onset — so its variance baseline
		// absorbs the attack and it cannot alarm on this shape at all.
		// It still rides the suite for ingest integrity under faults.
		{vm: "zoo-ewmavar", scheme: "ewmavar", faults: faultinject.Faults{Seed: 107, SkipLines: 2, CorruptEvery: 13, PartialWriteMax: 9}, hasDone: true, mayMiss: true},
	}

	s, addr := startServer(t, Options{ProfileSeconds: 60})
	type outcome struct {
		res     clientResult
		ok, bad int
	}
	results := make([]outcome, len(cases))
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func(i int, vm, scheme string, f faultinject.Faults) {
			defer wg.Done()
			if scheme == "" {
				scheme = "sds"
			}
			hs := fmt.Sprintf(hsFmt, vm, scheme)
			ok, bad := oracleCounts(t, append([]byte(hs+"\n"), body...), f)
			results[i] = outcome{res: chaosClient(t, addr, hs, body, f), ok: ok, bad: bad}
		}(i, tc.vm, tc.scheme, tc.faults)
	}
	wg.Wait()
	// The eof VM's transport dies mid-stream; wait for its handler to finish
	// draining before reading aggregate metrics.
	waitDisconnected(t, s, "eof")
	m := s.Metrics()

	wantTotal := uint64(0)
	wantQuarantined := uint64(0)
	for i, tc := range cases {
		got := results[i]
		vm, ok := m.VMs[tc.vm]
		if !ok {
			t.Fatalf("vm %s missing from /metricsz", tc.vm)
		}
		wantTotal += uint64(got.ok)
		wantQuarantined += uint64(got.bad)

		// Zero loss on surviving streams: every record the oracle says
		// survived the fault schedule was ingested.
		if ingested := vm.ProfileSamples + int(vm.Monitored); ingested != got.ok {
			t.Errorf("vm %s: ingested %d records, oracle says %d", tc.vm, ingested, got.ok)
		}
		// Malformed lines are quarantined — exactly as many as the oracle
		// predicts — without killing the connection.
		if vm.Quarantined != uint64(got.bad) {
			t.Errorf("vm %s: quarantined %d lines, oracle says %d", tc.vm, vm.Quarantined, got.bad)
		}
		// Every attacked VM that survived past the attack still alarms.
		if !tc.mayMiss && (!vm.Alarmed || vm.Alarms == 0) {
			t.Errorf("vm %s: attacked stream did not alarm (alarms=%d)", tc.vm, vm.Alarms)
		}
		if tc.hasDone {
			if len(got.res.errorLines) > 0 {
				t.Errorf("vm %s: server errors: %v", tc.vm, got.res.errorLines)
			}
			if got.res.done == nil {
				t.Errorf("vm %s: no done line", tc.vm)
			} else {
				if got.res.done.samples != got.ok {
					t.Errorf("vm %s: done reports %d samples, oracle says %d", tc.vm, got.res.done.samples, got.ok)
				}
				if !tc.mayMiss && got.res.done.alarms == 0 {
					t.Errorf("vm %s: done reports no alarms for an attacked stream", tc.vm)
				}
			}
		}
	}
	if cleanOK := results[0].ok; cleanOK != n {
		t.Errorf("clean oracle lost records: %d of %d", cleanOK, n)
	}
	if m.TotalSamples != wantTotal {
		t.Errorf("aggregate samples = %d, oracle says %d", m.TotalSamples, wantTotal)
	}
	if m.TotalQuarantined != wantQuarantined {
		t.Errorf("aggregate quarantined = %d, oracle says %d", m.TotalQuarantined, wantQuarantined)
	}
}

// TestServerAlarmWriteFailureDoesNotPoisonSession is the zero-loss drain
// regression test: a client that dies mid-stream (every write to it fails
// right after the ok line) must not cost the session its remaining buffered
// samples. Before the sink-based alarm path, the first failed alarm write
// poisoned the session and the worker discarded everything behind it.
func TestServerAlarmWriteFailureDoesNotPoisonSession(t *testing.T) {
	body, n := attackedStream(t)
	s := New(Options{})
	cl, sv := net.Pipe()
	defer cl.Close()

	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		// The server's writes fail after the first line (the ok line): the
		// peer is gone the moment the stream starts, as a crashed client.
		s.handleConn(faultinject.Wrap(sv, faultinject.Faults{FailWritesAfterLines: 1}))
	}()

	if _, err := cl.Write([]byte("sds/1 vm=dead app=kmeans scheme=sds profile=60\n")); err != nil {
		t.Fatal(err)
	}
	okLine, err := bufio.NewReader(cl).ReadString('\n')
	if err != nil || !strings.HasPrefix(okLine, "ok ") {
		t.Fatalf("no ok line before client death: %q, %v", okLine, err)
	}
	if _, err := cl.Write(body); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	<-handlerDone

	m := s.Metrics()
	if m.TotalSamples != uint64(n) {
		t.Errorf("server processed %d of %d samples — alarm write failure poisoned the drain", m.TotalSamples, n)
	}
	vm := m.VMs["dead"]
	if vm.ProfileSamples+int(vm.Monitored) != n {
		t.Errorf("session ingested %d of %d samples", vm.ProfileSamples+int(vm.Monitored), n)
	}
	if !vm.Alarmed || vm.Alarms == 0 {
		t.Errorf("attacked stream did not alarm (alarms=%d)", vm.Alarms)
	}
	if m.TotalAlarms == 0 {
		t.Error("ops surface reports zero alarms")
	}
}

// TestServerResumesProfilingSession: a connection that drops inside the
// Stage-1 profiling window can reconnect with the same vm id and spec and
// resume its session where it left off; the replayed prefix is deduplicated
// so the session sees every sample exactly once.
func TestServerResumesProfilingSession(t *testing.T) {
	const (
		profile = 20.0
		total   = 2500 // 20 s profile + 5 s monitored at tpcm=0.01
	)
	body := synthCSV(0, total, 0.01, 100)
	hs := "sds/1 vm=r1 profile=20"
	s, addr := startServer(t, Options{ProfileSeconds: profile})

	// First connection dies 10 s into the 20 s profile window.
	chaosClient(t, addr, hs, body, faultinject.Faults{SkipLines: 2, DropAfterLines: 1000})
	waitDisconnected(t, s, "r1")
	if vm := s.Metrics().VMs["r1"]; !vm.Profiling || vm.ProfileSamples != 1000 {
		t.Fatalf("pre-resume state = %+v, want 1000 profile samples still profiling", vm)
	}

	// Second connection replays the stream from the start.
	res := runClient(t, addr, hs, body)
	if !strings.Contains(res.okLine, "resumed=1") || !strings.Contains(res.okLine, "last_t=10") {
		t.Errorf("ok line %q does not announce the resume", res.okLine)
	}
	if len(res.errorLines) > 0 {
		t.Errorf("resumed stream errors: %v", res.errorLines)
	}
	if res.done == nil {
		t.Fatal("no done line on resumed stream")
	}
	if res.done.samples != total {
		t.Errorf("resumed session accounted %d of %d samples", res.done.samples, total)
	}
	if res.done.monitored != total-2000 {
		t.Errorf("monitored = %d, want %d", res.done.monitored, total-2000)
	}
	m := s.Metrics()
	if vm := m.VMs["r1"]; vm.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", vm.Resumes)
	}
	// Exactly-once: the 1000 replayed samples were not double-counted.
	if m.TotalSamples != total {
		t.Errorf("aggregate samples = %d, want %d", m.TotalSamples, total)
	}

	t.Run("mismatched spec starts fresh", func(t *testing.T) {
		hs2 := "sds/1 vm=r2 profile=20"
		chaosClient(t, addr, hs2, body, faultinject.Faults{SkipLines: 2, DropAfterLines: 500})
		waitDisconnected(t, s, "r2")
		// Reconnect with a different profile window: not resumable.
		res := runClient(t, addr, "sds/1 vm=r2 profile=15", body)
		if strings.Contains(res.okLine, "resumed=") {
			t.Errorf("spec mismatch still resumed: %q", res.okLine)
		}
		if res.done == nil || res.done.samples != total {
			t.Errorf("fresh session done = %+v, want %d samples", res.done, total)
		}
	})

	t.Run("resume disabled", func(t *testing.T) {
		s2, addr2 := startServer(t, Options{ProfileSeconds: profile, MaxResumes: -1})
		chaosClient(t, addr2, "sds/1 vm=r3 profile=20", body, faultinject.Faults{SkipLines: 2, DropAfterLines: 500})
		waitDisconnected(t, s2, "r3")
		res := runClient(t, addr2, "sds/1 vm=r3 profile=20", body)
		if strings.Contains(res.okLine, "resumed=") {
			t.Errorf("MaxResumes<0 still resumed: %q", res.okLine)
		}
		if res.done == nil || res.done.samples != total {
			t.Errorf("fresh session done = %+v, want %d samples", res.done, total)
		}
	})
}

// TestServerResumeRacesNewConnection: while the dropped VM's handler is
// still draining, a reconnect for the same id is rejected as a duplicate —
// the resume path never splits one VM across two live connections.
func TestServerResumeRacesNewConnection(t *testing.T) {
	s, addr := startServer(t, Options{ProfileSeconds: 20})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "sds/1 vm=racer profile=20\n"); err != nil {
		t.Fatal(err)
	}
	okLine := bufio.NewScanner(conn)
	if !okLine.Scan() || !strings.HasPrefix(okLine.Text(), "ok ") {
		t.Fatalf("stream not accepted: %q", okLine.Text())
	}
	// The first stream is mid-profile and still connected: the duplicate
	// must be rejected no matter how the resume budget looks.
	res := runClient(t, addr, "sds/1 vm=racer profile=20", nil)
	if len(res.errorLines) == 0 {
		t.Error("duplicate vm accepted while original stream still draining")
	}
	conn.Close()
	waitDisconnected(t, s, "racer")
	// Now the slot is free: the same id reconnects (and resumes).
	res = runClient(t, addr, "sds/1 vm=racer profile=20", synthCSV(0, 2500, 0.01, 100))
	if res.done == nil {
		t.Fatal("reconnect after release failed")
	}
}

// TestServerIdleEviction: a client that goes silent mid-stream is evicted
// after IdleTimeout — its samples so far are drained and accounted, the
// connection gets an error plus a done line, and the slot frees up.
func TestServerIdleEviction(t *testing.T) {
	const idle = 150 * time.Millisecond
	s, addr := startServer(t, Options{ProfileSeconds: 20, IdleTimeout: idle})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res := readResponses(t, conn, func() {
		fmt.Fprintf(conn, "sds/1 vm=idle profile=20\n")
		if _, err := conn.Write(synthCSV(0, 100, 0.01, 100)); err != nil {
			t.Errorf("body write: %v", err)
		}
		// Go silent without closing: the server must evict, not wait.
	})
	if len(res.errorLines) == 0 || !strings.Contains(res.errorLines[0], "idle timeout") {
		t.Fatalf("no idle-timeout error line: %v", res.errorLines)
	}
	if res.done == nil || res.done.samples != 100 {
		t.Fatalf("evicted stream done = %+v, want 100 samples drained", res.done)
	}
	m := s.Metrics()
	if m.IdleEvictions != 1 {
		t.Errorf("idle evictions = %d, want 1", m.IdleEvictions)
	}
	if m.ActiveVMs != 0 {
		t.Errorf("%d VMs still active after eviction", m.ActiveVMs)
	}
}

// TestMetricsConcurrentScrape hammers the ops surface while streams are
// being ingested and torn down; under -race it audits every counter the
// /metricsz report touches.
func TestMetricsConcurrentScrape(t *testing.T) {
	s, addr := startServer(t, Options{ProfileSeconds: 5, Shards: 4})
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rr := httptest.NewRecorder()
				s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metricsz", nil))
				if rr.Code != 200 {
					t.Errorf("metricsz = %d", rr.Code)
					return
				}
			}
		}()
	}
	var clients sync.WaitGroup
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			hs := fmt.Sprintf("sds/1 vm=scrape-%d profile=5", i)
			// One damaged stream in the mix exercises the quarantine
			// counters under concurrent scraping too.
			f := faultinject.Faults{}
			if i == 0 {
				f = faultinject.Faults{Seed: 1, SkipLines: 2, CorruptEvery: 17}
			}
			chaosClient(t, addr, hs, synthCSV(0, 1000, 0.01, 100), f)
		}(i)
	}
	clients.Wait()
	close(stop)
	scrapers.Wait()
	m := s.Metrics()
	if len(m.VMs) != 4 {
		t.Errorf("metrics report %d VMs, want 4", len(m.VMs))
	}
	// The scrape loop above read the per-shard gauges while every counter
	// was moving; now settled, they must reconcile with the totals.
	if len(m.Shards) != 4 {
		t.Fatalf("metrics carry %d shard blocks, want 4", len(m.Shards))
	}
	var shardSamples, shardQuarantined uint64
	for _, sh := range m.Shards {
		shardSamples += sh.Samples
		shardQuarantined += sh.Quarantined
	}
	if shardSamples != m.TotalSamples {
		t.Errorf("shard samples sum to %d, server total %d", shardSamples, m.TotalSamples)
	}
	if shardQuarantined != m.TotalQuarantined {
		t.Errorf("shard quarantines sum to %d, server total %d", shardQuarantined, m.TotalQuarantined)
	}
}

// TestServerIdleSweepChaos pins the IdleTimeout contract across the
// sharded ingest plane's decode paths: the coarse per-shard sweep must
// evict exactly the connections whose stream went silent — CSV pumps and
// event-loop binary streams alike — while leaving slow-but-alive streams
// untouched, with the same error line and drained accounting the per-read
// deadline implementation produced.
func TestServerIdleSweepChaos(t *testing.T) {
	const (
		idle    = 300 * time.Millisecond
		sent    = 100  // samples each silent stream sends before stalling
		slowTot = 1400 // samples a slow stream trickles in
		tpcm    = 0.01
	)
	s, addr := startServer(t, Options{ProfileSeconds: 20, IdleTimeout: idle, Shards: 2})

	var wg sync.WaitGroup
	silent := func(i int, hs string, body []byte) {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("silent %d: %v", i, err)
			return
		}
		defer conn.Close()
		res := readResponses(t, conn, func() {
			fmt.Fprintf(conn, "%s\n", hs)
			if _, err := conn.Write(body); err != nil {
				t.Errorf("silent %d: body write: %v", i, err)
			}
			// Stall without closing: only the sweep can end this stream.
		})
		if len(res.errorLines) != 1 || !strings.Contains(res.errorLines[0], "idle timeout") {
			t.Errorf("silent %d: error lines = %v, want one idle timeout", i, res.errorLines)
		}
		if res.done == nil || res.done.samples != sent {
			t.Errorf("silent %d: done = %+v, want %d samples drained", i, res.done, sent)
		}
	}
	slow := func(i int) {
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("slow %d: %v", i, err)
			return
		}
		defer conn.Close()
		res := readResponses(t, conn, func() {
			// 12 s profile = 1200 samples at this tpcm — past the profiler's
			// 1150-sample minimum, so the trickled stream ends cleanly
			// monitored.
			fmt.Fprintf(conn, "sds/1 vm=slow-%d profile=12\nt,access,miss\n", i)
			// Trickle batches with gaps far below IdleTimeout: a sweep that
			// measures anything but one blocked read would evict these.
			for off := 0; off < slowTot; off += 70 {
				b := synthCSV(off, off+70, tpcm, 100)
				b = bytes.TrimPrefix(b, []byte("t,access,miss\n"))
				if _, err := conn.Write(b); err != nil {
					t.Errorf("slow %d: write: %v", i, err)
					return
				}
				time.Sleep(idle / 10)
			}
			conn.(*net.TCPConn).CloseWrite()
		})
		if len(res.errorLines) > 0 {
			t.Errorf("slow %d: evicted a live stream: %v", i, res.errorLines)
		}
		if res.done == nil || res.done.samples != slowTot {
			t.Errorf("slow %d: done = %+v, want %d samples", i, res.done, slowTot)
		}
	}

	// 4 silent CSV streams (goroutine pump sweep), 2 silent binary streams
	// (event-loop sweep where the platform has one), 3 slow CSV streams.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go silent(i, fmt.Sprintf("sds/1 vm=idle-csv-%d profile=20", i), synthCSV(0, sent, tpcm, 100))
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go silent(4+i, fmt.Sprintf("sds/1 vm=idle-bin-%d profile=20 frames=bin", i), synthBinOpen(t, 0, sent, tpcm, 100))
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go slow(i)
	}
	wg.Wait()

	m := s.Metrics()
	if m.IdleEvictions != 6 {
		t.Errorf("idle evictions = %d, want 6 (the silent streams, nothing else)", m.IdleEvictions)
	}
	if m.ActiveVMs != 0 {
		t.Errorf("%d VMs still active after sweep and close", m.ActiveVMs)
	}
}
