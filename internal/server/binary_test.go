package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/pcm"
)

// synthBin renders samples [from, to) as a binary frame body (batch size
// chosen to span several frames), terminated by an end frame.
func synthBin(t *testing.T, from, to int, tpcm, base float64) []byte {
	t.Helper()
	var b bytes.Buffer
	w := feed.NewBinWriter(&b)
	batch := make([]pcm.Sample, 0, 256)
	for i := from; i < to; i++ {
		batch = append(batch, synthSample(i, tpcm, base))
		if len(batch) == cap(batch) {
			if err := w.WriteBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := w.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestServerBinaryStream: a frames=bin session ingests every sample, the
// ok line confirms the negotiated encoding, and the frame counter moves.
func TestServerBinaryStream(t *testing.T) {
	const (
		tpcm    = 0.01
		profile = 20.0
		total   = 2600
	)
	s, addr := startServer(t, Options{ProfileSeconds: profile})
	body := synthBin(t, 0, total, tpcm, 1000)
	res := runClient(t, addr, "sds/1 vm=bin-1 app=synth profile=20 frames=bin", body)
	if res.okLine != "ok vm=bin-1 app=synth scheme=sds profile=20 frames=bin" {
		t.Errorf("ok line = %q, want frames=bin confirmation", res.okLine)
	}
	if len(res.errorLines) > 0 {
		t.Fatalf("stream errored: %v", res.errorLines)
	}
	if res.done == nil {
		t.Fatal("no done line")
	}
	if res.done.samples != total {
		t.Errorf("server accounted %d samples, want %d (zero loss)", res.done.samples, total)
	}
	if got := s.Metrics().TotalBinFrames; got == 0 {
		t.Errorf("TotalBinFrames = %d, want > 0", got)
	}
}

// TestServerCSVBinaryAlarmEquivalence is the cross-encoding conformance
// contract: the same simulated attacked stream, sent once as CSV text and
// once as binary frames, must produce identical alarm streams and
// identical done accounting — the encoding is a carrier, not a detector
// input.
func TestServerCSVBinaryAlarmEquivalence(t *testing.T) {
	spec := ReplaySpec{App: "kmeans", Seconds: 160, AttackAt: 100, Seed: 7}
	var csvBody, binBody bytes.Buffer
	nCSV, err := WriteSimulatedStream(&csvBody, spec)
	if err != nil {
		t.Fatal(err)
	}
	nBin, err := WriteSimulatedStreamBinary(&binBody, spec)
	if err != nil {
		t.Fatal(err)
	}
	if nCSV != nBin {
		t.Fatalf("replay emitted %d CSV samples but %d binary samples", nCSV, nBin)
	}

	_, addr := startServer(t, Options{})
	var (
		wg     sync.WaitGroup
		resCSV clientResult
		resBin clientResult
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		resCSV = runClient(t, addr, "sds/1 vm=eq-csv app=kmeans scheme=sds profile=60", csvBody.Bytes())
	}()
	go func() {
		defer wg.Done()
		resBin = runClient(t, addr, "sds/1 vm=eq-bin app=kmeans scheme=sds profile=60 frames=bin", binBody.Bytes())
	}()
	wg.Wait()

	if len(resCSV.alarmLines) == 0 {
		t.Fatal("CSV session raised no alarms — equivalence test is vacuous")
	}
	if !reflect.DeepEqual(resCSV.alarmLines, resBin.alarmLines) {
		t.Errorf("alarm streams differ across encodings:\ncsv: %v\nbin: %v", resCSV.alarmLines, resBin.alarmLines)
	}
	if resCSV.done == nil || resBin.done == nil {
		t.Fatal("missing done line")
	}
	if resCSV.done.samples != resBin.done.samples ||
		resCSV.done.monitored != resBin.done.monitored ||
		resCSV.done.dropped != resBin.done.dropped ||
		resCSV.done.alarms != resBin.done.alarms {
		t.Errorf("done accounting differs: csv %+v, bin %+v", resCSV.done, resBin.done)
	}
}

// TestServerBinaryNonFiniteQuarantine: non-finite samples inside a frame
// are quarantined (counted on /metricsz) without killing the stream — the
// binary twin of the malformed-CSV-line contract.
func TestServerBinaryNonFiniteQuarantine(t *testing.T) {
	const (
		tpcm    = 0.01
		profile = 20.0
		total   = 2600
	)
	var b bytes.Buffer
	w := feed.NewBinWriter(&b)
	bad := 0
	batch := make([]pcm.Sample, 0, 128)
	for i := 0; i < total; i++ {
		s := synthSample(i, tpcm, 1000)
		if i > 2100 && i%97 == 0 { // damage only monitored-stage samples
			s.Access = math.NaN()
			bad++
		}
		batch = append(batch, s)
		if len(batch) == cap(batch) {
			if err := w.WriteBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := w.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatal("test generated no damaged samples")
	}

	s, addr := startServer(t, Options{ProfileSeconds: profile})
	res := runClient(t, addr, "sds/1 vm=bin-q profile=20 frames=bin", b.Bytes())
	if len(res.errorLines) > 0 {
		t.Fatalf("quarantinable damage killed the stream: %v", res.errorLines)
	}
	if res.done == nil {
		t.Fatal("no done line")
	}
	if res.done.samples != total-bad {
		t.Errorf("ingested %d samples, want %d (total %d - %d quarantined)", res.done.samples, total-bad, total, bad)
	}
	m := s.Metrics()
	if m.TotalQuarantined != uint64(bad) {
		t.Errorf("TotalQuarantined = %d, want %d", m.TotalQuarantined, bad)
	}
	if vm := m.VMs["bin-q"]; vm.Quarantined != uint64(bad) {
		t.Errorf("per-VM quarantined = %d, want %d", vm.Quarantined, bad)
	}
}

// TestServerBinaryFramingErrorIsFatal: framing damage has no resync point,
// so the server must end the stream with an error line — but still drain
// what it accepted and emit the done accounting.
func TestServerBinaryFramingErrorIsFatal(t *testing.T) {
	const (
		tpcm    = 0.01
		profile = 20.0
		total   = 2400
	)
	body := synthBin(t, 0, total, tpcm, 1000)
	body = body[:len(body)-1]                         // strip the end frame
	body = append(body, 0x7f, 0xde, 0xad, 0xbe, 0xef) // junk frame type

	_, addr := startServer(t, Options{ProfileSeconds: profile})
	res := runClient(t, addr, "sds/1 vm=bin-f profile=20 frames=bin", body)
	if len(res.errorLines) != 1 {
		t.Fatalf("error lines = %v, want exactly one framing error", res.errorLines)
	}
	if res.done == nil {
		t.Fatal("no done line after framing error — accepted samples were not drained")
	}
	if res.done.samples != total {
		t.Errorf("drained %d samples, want all %d accepted before the bad frame", res.done.samples, total)
	}
}

// scriptedConn is the server end of a net.Pipe whose reads replay a fixed
// client stream and then EOF, like a client that half-closed its write
// side (net.Pipe has no half-close); response lines still go over the
// pipe. It is not a syscall.Conn, so no event loop can own it and its
// binary streams are read by the goroutine pump.
type scriptedConn struct {
	net.Conn
	r io.Reader
}

func (c *scriptedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// runPipe streams hs and body to s through handleConn on a scriptedConn
// and collects every response line.
func runPipe(t *testing.T, s *Server, hs string, body []byte) clientResult {
	t.Helper()
	cl, sv := net.Pipe()
	defer cl.Close()
	stream := append([]byte(hs+"\n"), body...)
	return readResponses(t, cl, func() {
		go s.handleConn(&scriptedConn{Conn: sv, r: bytes.NewReader(stream)})
	})
}

// TestServerBinaryPumpMatchesEventLoop: the goroutine pump and the socket
// path (the shard event loop on Linux) give the same transcript and the
// same /metricsz counters for the same bytes — an attacked stream with one
// non-finite sample, and the same stream cut inside its final frame.
func TestServerBinaryPumpMatchesEventLoop(t *testing.T) {
	var samples []pcm.Sample
	if _, err := simulateStream(ReplaySpec{App: "kmeans", Seconds: 160, AttackAt: 100, Seed: 7}, func(s pcm.Sample) error {
		samples = append(samples, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	samples[len(samples)/2].Miss = math.Inf(1) // monitored, before the attack
	var b bytes.Buffer
	w := feed.NewBinWriter(&b)
	if err := w.WriteBatch(samples); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	clean := b.Bytes()
	cut := clean[:len(clean)-1-10] // no end frame, final payload short by 10 bytes

	const hs = "sds/1 vm=pump app=kmeans scheme=sds profile=60 frames=bin"
	for _, tc := range []struct {
		name    string
		body    []byte
		wantErr string
	}{
		{"attack", clean, ""},
		{"truncated", cut, "truncated payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sock, addr := startServer(t, Options{})
			want := runClient(t, addr, hs, tc.body)
			pipe := New(Options{})
			got := runPipe(t, pipe, hs, tc.body)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pump transcript differs from the socket path's:\npump:   %+v %+v\nsocket: %+v %+v", got, got.done, want, want.done)
			}
			if want.done == nil || len(want.alarmLines) == 0 {
				t.Fatalf("socket transcript has done=%v and %d alarms, want a done line and alarms", want.done, len(want.alarmLines))
			}
			switch {
			case tc.wantErr == "" && len(want.errorLines) != 0:
				t.Errorf("clean stream errored: %v", want.errorLines)
			case tc.wantErr != "" && (len(want.errorLines) != 1 || !strings.Contains(want.errorLines[0], tc.wantErr)):
				t.Errorf("error lines = %v, want one %q error", want.errorLines, tc.wantErr)
			}
			ms, mp := sock.Metrics(), pipe.Metrics()
			if ms.TotalQuarantined != 1 {
				t.Errorf("socket path quarantined %d samples, want 1", ms.TotalQuarantined)
			}
			if mp.TotalBinFrames != ms.TotalBinFrames || mp.TotalQuarantined != ms.TotalQuarantined || mp.TotalSamples != ms.TotalSamples {
				t.Errorf("pump counters frames=%d quarantined=%d samples=%d, socket path frames=%d quarantined=%d samples=%d",
					mp.TotalBinFrames, mp.TotalQuarantined, mp.TotalSamples, ms.TotalBinFrames, ms.TotalQuarantined, ms.TotalSamples)
			}
		})
	}
}

// TestServerBinaryManyConcurrentStreams: the binary plane keeps the
// zero-loss contract under concurrency (run with -race in CI).
func TestServerBinaryManyConcurrentStreams(t *testing.T) {
	const (
		vms   = 16
		tpcm  = 0.01
		total = 3000
	)
	s, addr := startServer(t, Options{ProfileSeconds: 20})
	var wg sync.WaitGroup
	results := make([]clientResult, vms)
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := synthBin(t, 0, total, tpcm, 1000+float64(i))
			results[i] = runClient(t, addr,
				fmt.Sprintf("sds/1 vm=bin-%02d profile=20 frames=bin", i), body)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if len(res.errorLines) > 0 {
			t.Errorf("vm %d errored: %v", i, res.errorLines)
			continue
		}
		if res.done == nil || res.done.samples != total {
			t.Errorf("vm %d accounted %v samples, want %d", i, res.done, total)
		}
	}
	if got := s.Metrics().TotalSamples; got != uint64(vms*total) {
		t.Errorf("fleet-wide samples = %d, want %d", got, vms*total)
	}
}

// TestServerBadFramesField: an unknown frames= value is a handshake error.
func TestServerBadFramesField(t *testing.T) {
	_, addr := startServer(t, Options{})
	res := runClient(t, addr, "sds/1 vm=x frames=proto9", nil)
	if len(res.errorLines) != 1 || res.okLine != "" {
		t.Fatalf("bad frames value accepted: ok=%q errors=%v", res.okLine, res.errorLines)
	}
}

// TestServerReleasesFinishedWriter: once a stream's done line is out, the
// VM's row no longer holds that connection's writer (its 4 KiB buffer and
// the conn) for the rest of the row's life, and a reconnect inside Stage 1
// still resumes the session.
func TestServerReleasesFinishedWriter(t *testing.T) {
	const (
		tpcm  = 0.01
		total = 2500 // 20 s profile + 5 s monitored
	)
	s, addr := startServer(t, Options{ProfileSeconds: 20})
	hs := "sds/1 vm=rel profile=20 frames=bin"
	released := func() {
		t.Helper()
		s.mu.Lock()
		cw := s.sessions["rel"].sink.Load()
		s.mu.Unlock()
		if cw == nil || cw.conn != nil || cw.w != nil {
			t.Errorf("finished stream's sink = %+v, want a detached writer with no conn or buffer", cw)
		}
	}

	// The first stream ends 10 s into the 20 s profile window.
	if res := runClient(t, addr, hs, synthBin(t, 0, 1000, tpcm, 100)); res.done == nil {
		t.Fatal("no done line on the first stream")
	}
	released()

	res := runClient(t, addr, hs, synthBin(t, 0, total, tpcm, 100))
	if !strings.Contains(res.okLine, "resumed=1") {
		t.Errorf("ok line %q does not announce the resume", res.okLine)
	}
	if res.done == nil || res.done.samples != total {
		t.Fatalf("resumed stream done = %+v, want %d samples", res.done, total)
	}
	released()
}
