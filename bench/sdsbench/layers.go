package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/server"
	"github.com/memdos/sds/internal/signal"
	"github.com/memdos/sds/internal/timeseries"
)

// The traced run replays the workload's own input streams through each
// layer's public entry point, one layer at a time, so every per-layer
// metric is measured on the same inputs the end-to-end run used. These
// caps bound the replay's time and memory on the largest workload.
const (
	// replayBytesSamples caps the samples encoded for the net and feed
	// replays (about 24 MB binary, 35 MB CSV).
	replayBytesSamples = 1 << 20
	// replayOpenStreams is how many streams the server replay opens.
	replayOpenStreams = 2000
	// replayMinVMs is the fewest sessions or detectors a bytes-per-VM
	// reading is taken over, so the heap delta dwarfs allocator noise.
	replayMinVMs = 200
)

// corpusStream is one input stream of a workload, as the program under
// test receives it.
type corpusStream struct {
	app     string
	scheme  string
	profile float64 // Stage-1 seconds
	samples []pcm.Sample
}

// layerNumbers holds the per-layer replay results.
type layerNumbers struct {
	netRecvNS, binScanNS, csvParseNS   float64
	observeBatchNS, openStreamUS       float64
	scrapeMS, alarmEncodeNS            float64
	profileBytesPerVM, stateBytesPerVM float64
	buildProfileMS, observeNS          float64
	periodEstimateUS                   float64
	perScheme                          map[string]float64
}

// replayLayers runs every layer replay over corpus.
func replayLayers(tr *tracer, corpus []corpusStream, quick bool) (layerNumbers, error) {
	var ln layerNumbers
	root := tr.begin(-1, -1, "layers", "")
	defer tr.end(root)

	bin, csv, n := encodeCorpus(corpus)
	var err error
	if ln.netRecvNS, err = replayNet(tr, root, bin, n); err != nil {
		return ln, err
	}
	if ln.binScanNS, err = replayBinScan(tr, root, bin, n); err != nil {
		return ln, err
	}
	if ln.csvParseNS, err = replayCSVParse(tr, root, csv, n); err != nil {
		return ln, err
	}
	bin, csv = nil, nil // about 60 MB the session replays do not need

	alarms, err := replaySessions(tr, root, corpus, &ln)
	if err != nil {
		return ln, err
	}
	ln.alarmEncodeNS = replayAlarmEncode(alarms)
	if err := replayDetectors(tr, root, corpus, &ln); err != nil {
		return ln, err
	}
	ln.periodEstimateUS = replayPeriod(tr, root, corpus)
	opens := replayOpenStreams
	if quick {
		opens /= 10
	}
	open, scrape, err := replayServer(tr, root, corpus, opens)
	if err != nil {
		return ln, err
	}
	ln.openStreamUS = mean(durations(open, time.Microsecond))
	ln.scrapeMS = median(durations(scrape, time.Millisecond))
	return ln, nil
}

// encodeCorpus renders up to replayBytesSamples corpus samples in both
// stream encodings: binary frames of at most 1024 samples and feed CSV.
func encodeCorpus(corpus []corpusStream) (bin, csv []byte, n int) {
	for _, cs := range corpus {
		for off := 0; off < len(cs.samples) && n < replayBytesSamples; off += feed.MaxFrameSamples {
			frame := cs.samples[off:min(off+feed.MaxFrameSamples, len(cs.samples))]
			bin = appendBinFrame(bin, frame)
			for _, s := range frame {
				csv = strconv.AppendFloat(csv, s.T, 'g', -1, 64)
				csv = append(csv, ',')
				csv = strconv.AppendFloat(csv, s.Access, 'g', -1, 64)
				csv = append(csv, ',')
				csv = strconv.AppendFloat(csv, s.Miss, 'g', -1, 64)
				csv = append(csv, '\n')
			}
			n += len(frame)
		}
	}
	return bin, csv, n
}

// appendBinFrame appends one sds/1 binary sample frame (type 0x01, little-
// endian count, 24-byte records). The generator owns its encoder so that a
// change to the program's own writer cannot move the load it offers.
func appendBinFrame(b []byte, frame []pcm.Sample) []byte {
	b = append(b, 0x01, byte(len(frame)), byte(len(frame)>>8))
	for _, s := range frame {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.T))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Access))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Miss))
	}
	return b
}

// replayNet streams bin over a loopback TCP pair and charges the reading
// thread's CPU time per sample: the kernel receive path and copy-out that
// sdsd's block reads pay, without the time spent waiting for data.
func replayNet(tr *tracer, parent int32, bin []byte, n int) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			writeErr = err
			return
		}
		defer c.Close()
		for off := 0; off < len(bin) && writeErr == nil; off += 256 << 10 {
			_, writeErr = c.Write(bin[off:min(off+256<<10, len(bin))])
		}
	}()
	c, err := l.Accept()
	l.Close()
	if err != nil {
		wg.Wait()
		return 0, err
	}
	defer c.Close()

	id := tr.begin(-1, parent, "net.replay", "")
	runtime.LockOSThread()
	buf := make([]byte, 256<<10)
	cpu0 := clockCPU(clockThreadCPU)
	var got int
	for {
		start := time.Now()
		k, err := c.Read(buf)
		tr.record(-1, id, "net.read", "", start, time.Now())
		got += k
		if err == io.EOF {
			break
		}
		if err != nil {
			runtime.UnlockOSThread()
			c.Close() // unblocks the writer
			wg.Wait()
			return 0, err
		}
	}
	cpu := clockCPU(clockThreadCPU) - cpu0
	runtime.UnlockOSThread()
	tr.end(id)
	wg.Wait()
	if writeErr != nil {
		return 0, writeErr
	}
	if got != len(bin) {
		return 0, fmt.Errorf("net replay: read %d of %d bytes", got, len(bin))
	}
	return float64(cpu) / float64(n), nil
}

// replayBinScan decodes bin with feed.FrameScanner, the binary ingest
// path's decoder.
func replayBinScan(tr *tracer, parent int32, bin []byte, n int) (float64, error) {
	id := tr.begin(-1, parent, "feed.bin_scan", "")
	defer tr.end(id)
	var sc feed.FrameScanner
	dst := make([]pcm.Sample, 0, feed.MaxFrameSamples)
	start := time.Now()
	got := 0
	for pos := 0; pos < len(bin); {
		consumed, k, _, err := sc.Next(bin[pos:], dst)
		if err != nil {
			return 0, err
		}
		if consumed == 0 {
			return 0, fmt.Errorf("bin scan replay: partial frame at byte %d", pos)
		}
		pos += consumed
		got += k
	}
	if got != n {
		return 0, fmt.Errorf("bin scan replay: decoded %d of %d samples", got, n)
	}
	return float64(time.Since(start)) / float64(n), nil
}

// replayCSVParse parses csv with feed.Reader, the CSV ingest path's parser.
func replayCSVParse(tr *tracer, parent int32, csv []byte, n int) (float64, error) {
	id := tr.begin(-1, parent, "feed.csv_parse", "")
	defer tr.end(id)
	r := feed.NewReader(bytes.NewReader(csv))
	start := time.Now()
	got := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		got++
	}
	if got != n {
		return 0, fmt.Errorf("csv parse replay: parsed %d of %d samples", got, n)
	}
	return float64(time.Since(start)) / float64(n), nil
}

// replaySessions feeds each corpus stream through server.NewSession and
// ObserveBatch in 1024-sample frames, timing the monitored-stage frames,
// and measures the Stage-1 window a profiling session holds. It returns
// every alarm raised.
func replaySessions(tr *tracer, parent int32, corpus []corpusStream, ln *layerNumbers) ([]detect.Alarm, error) {
	id := tr.begin(-1, parent, "server.replay", "")
	defer tr.end(id)
	var alarms []detect.Alarm
	var busy time.Duration
	var monitored int
	for i, cs := range corpus {
		sess, err := server.NewSession(server.StreamSpec{VM: fmt.Sprintf("replay-%d", i), App: cs.app,
			Scheme: cs.scheme, ProfileSeconds: cs.profile,
			OnAlarm: func(a detect.Alarm) error { alarms = append(alarms, a); return nil }})
		if err != nil {
			return nil, err
		}
		for off := 0; off < len(cs.samples); off += feed.MaxFrameSamples {
			frame := cs.samples[off:min(off+feed.MaxFrameSamples, len(cs.samples))]
			timed := !sess.Profiling()
			start := time.Now()
			if _, err := sess.ObserveBatch(frame); err != nil {
				return nil, err
			}
			if timed {
				end := time.Now()
				busy += end.Sub(start)
				monitored += len(frame)
				tr.record(-1, id, "server.observe_batch", "monitored", start, end)
			}
		}
	}
	if monitored == 0 {
		return nil, fmt.Errorf("session replay: no stream reached its monitored stage")
	}
	ln.observeBatchNS = float64(busy) / float64(monitored)

	reps := (replayMinVMs + len(corpus) - 1) / len(corpus)
	sessions := make([]*server.Session, 0, reps*len(corpus))
	before := liveHeap()
	for r := 0; r < reps; r++ {
		for _, cs := range corpus {
			sess, err := server.NewSession(server.StreamSpec{VM: "profiling", App: cs.app,
				Scheme: cs.scheme, ProfileSeconds: cs.profile})
			if err != nil {
				return nil, err
			}
			if _, err := sess.ObserveBatch(cs.samples[:1]); err != nil {
				return nil, err
			}
			sessions = append(sessions, sess)
		}
	}
	ln.profileBytesPerVM = float64(int64(liveHeap())-int64(before)) / float64(len(sessions))
	runtime.KeepAlive(sessions)
	return alarms, nil
}

// replayAlarmEncode times the alarm line's JSON encoding over the
// replay's alarms; NaN, which fails the run, when there were none.
func replayAlarmEncode(alarms []detect.Alarm) float64 {
	if len(alarms) == 0 {
		return math.NaN()
	}
	const encodes = 20000
	start := time.Now()
	for i := 0; i < encodes; i++ {
		if _, err := json.Marshal(server.NewAlarmEvent(alarms[i%len(alarms)])); err != nil {
			return math.NaN()
		}
	}
	return float64(time.Since(start)) / encodes
}

// profileWindow returns the Stage-1 samples a session profiles: those
// before the first sample's time plus the window.
func profileWindow(cs corpusStream) []pcm.Sample {
	cutoff := cs.samples[0].T + cs.profile
	n := 0
	for n < len(cs.samples) && cs.samples[n].T < cutoff {
		n++
	}
	return cs.samples[:n]
}

// newDetector builds a scheme's detector the way a session does once its
// profile is complete (server's own switch is unexported), seeding
// KStest's baseline from the profile window.
func newDetector(scheme string, prof detect.Profile, window []pcm.Sample) (detect.Detector, error) {
	cfg := detect.DefaultConfig()
	switch scheme {
	case "sds":
		return detect.NewSDS(prof, cfg)
	case "sdsb":
		return detect.NewSDSB(prof, cfg)
	case "sdsp":
		return detect.NewSDSP(prof, cfg)
	case "cusum":
		return detect.NewCUSUM(prof, cfg)
	case "timefrag":
		return detect.NewTimeFrag(prof, cfg)
	case "ewmavar":
		return detect.NewEWMAVar(prof, cfg)
	case "kstest":
		ks, err := detect.NewKSTest(detect.DefaultKSTestConfig(), nil)
		if err != nil {
			return nil, err
		}
		for _, s := range window {
			ks.Observe(s)
		}
		return ks, nil
	}
	return nil, fmt.Errorf("unknown scheme %q", scheme)
}

// replayDetectors times detect.BuildProfile on each stream's Stage-1
// window and a sanitized detector's Observe over its monitored samples,
// per 1024-sample batch, and measures a detector's resident state.
func replayDetectors(tr *tracer, parent int32, corpus []corpusStream, ln *layerNumbers) error {
	id := tr.begin(-1, parent, "detect.replay", "")
	defer tr.end(id)
	cfg := detect.DefaultConfig()
	profiles := make([]detect.Profile, len(corpus))
	var builds []float64
	reps := max(1, 10/len(corpus)) // at least ten timed builds
	for i, cs := range corpus {
		window := profileWindow(cs)
		for r := 0; r < reps; r++ {
			start := time.Now()
			prof, err := detect.BuildProfile(cs.app, window, cfg)
			end := time.Now()
			if err != nil {
				return err
			}
			tr.record(-1, id, "detect.build_profile", cs.app, start, end)
			builds = append(builds, float64(end.Sub(start))/float64(time.Millisecond))
			profiles[i] = prof
		}
	}
	ln.buildProfileMS = median(builds)

	busy := make(map[string]time.Duration)
	count := make(map[string]int)
	var total time.Duration
	var samples int
	for i, cs := range corpus {
		window := profileWindow(cs)
		det, err := newDetector(cs.scheme, profiles[i], window)
		if err != nil {
			return err
		}
		san := detect.NewSanitizer(det)
		rest := cs.samples[len(window):]
		for off := 0; off < len(rest); off += feed.MaxFrameSamples {
			batch := rest[off:min(off+feed.MaxFrameSamples, len(rest))]
			start := time.Now()
			for _, s := range batch {
				san.Observe(s)
			}
			end := time.Now()
			tr.record(-1, id, "detect.observe", cs.scheme, start, end)
			busy[cs.scheme] += end.Sub(start)
			count[cs.scheme] += len(batch)
			total += end.Sub(start)
			samples += len(batch)
		}
	}
	if samples == 0 {
		return fmt.Errorf("detector replay: no monitored samples")
	}
	ln.observeNS = float64(total) / float64(samples)
	ln.perScheme = make(map[string]float64, len(busy))
	for s, d := range busy {
		ln.perScheme[s] = float64(d) / float64(count[s])
	}

	reps = (replayMinVMs + len(corpus) - 1) / len(corpus)
	dets := make([]detect.Detector, 0, reps*len(corpus))
	before := liveHeap()
	for r := 0; r < reps; r++ {
		for i, cs := range corpus {
			det, err := newDetector(cs.scheme, profiles[i], nil)
			if err != nil {
				return err
			}
			dets = append(dets, detect.NewSanitizer(det))
		}
	}
	ln.stateBytesPerVM = float64(int64(liveHeap())-int64(before)) / float64(len(dets))
	runtime.KeepAlive(dets)
	return nil
}

// replayPeriod times signal.PeriodEstimator.Estimate on the AccessNum MA
// series of each stream's Stage-1 window — the estimate SDS/P repeats on
// periodic streams and profiling runs once per stream.
func replayPeriod(tr *tracer, parent int32, corpus []corpusStream) float64 {
	id := tr.begin(-1, parent, "signal.replay", "")
	defer tr.end(id)
	cfg := detect.DefaultConfig()
	est := signal.NewPeriodEstimator()
	opts := signal.PeriodOptions{MaxPeriod: 60}
	reps := max(1, 100/len(corpus))
	var times []float64
	for _, cs := range corpus {
		window := profileWindow(cs)
		access := make([]float64, len(window))
		for i, s := range window {
			access[i] = s.Access
		}
		ma, err := timeseries.MovingAverage(access, cfg.W, cfg.DW)
		if err != nil || len(ma) < 4 {
			continue
		}
		est.Estimate(ma, opts) // builds the estimator's plans for this size
		for r := 0; r < reps; r++ {
			start := time.Now()
			est.Estimate(ma, opts)
			end := time.Now()
			tr.record(-1, id, "signal.period_estimate", cs.app, start, end)
			times = append(times, float64(end.Sub(start))/float64(time.Microsecond))
		}
	}
	return median(times)
}

// replayServer opens streams on an in-process server.New, timing each
// OpenStream, then times ten Metrics snapshots with their JSON encoding —
// what one /metricsz scrape of that server costs.
func replayServer(tr *tracer, parent int32, corpus []corpusStream, opens int) (open, scrape []time.Duration, err error) {
	id := tr.begin(-1, parent, "server.open_replay", "")
	defer tr.end(id)
	srv := server.New(server.Options{})
	for i := 0; i < opens; i++ {
		cs := corpus[i%len(corpus)]
		start := time.Now()
		_, err := srv.OpenStream(server.StreamSpec{VM: fmt.Sprintf("open-%d", i), App: cs.app,
			Scheme: cs.scheme, ProfileSeconds: cs.profile})
		end := time.Now()
		if err != nil {
			return nil, nil, err
		}
		tr.record(-1, id, "server.open_stream", "", start, end)
		open = append(open, end.Sub(start))
	}
	for i := 0; i < 10; i++ {
		start := time.Now()
		if err := json.NewEncoder(io.Discard).Encode(srv.Metrics()); err != nil {
			return nil, nil, err
		}
		end := time.Now()
		tr.record(-1, id, "server.metrics_scrape", "", start, end)
		scrape = append(scrape, end.Sub(start))
	}
	return open, scrape, nil
}

// layerRun carries what a workload run measured itself, next to the
// replays, into the per-layer metrics.
type layerRun struct {
	corpus   []corpusStream // the inputs the traced run replays
	genNS    float64        // client work per sample rendered or encoded
	cpuNS    float64        // the run's cpu_ns_per_sample
	scrapes  []time.Duration
	opens    []time.Duration
	overhead float64 // traced vs untraced throughput, minus one
	// attributedNS sums the replayed layers on the workload's own
	// per-sample path; the rest of cpuNS is unattributed.
	attributedNS func(layerNumbers) float64
	rt0, rt1     runtimeStats // around the workload run
	heapPeak     uint64
}

// setLayerMetrics fills the per-layer metrics from the replays and the
// workload's own traced measurements.
func setLayerMetrics(r *result, ln layerNumbers, lr *layerRun) {
	r.set("client.gen_ns_per_sample", "ns", lr.genNS, 0)
	r.set("net.recv_ns_per_sample", "ns", ln.netRecvNS, 0)
	r.set("feed.bin_scan_ns_per_sample", "ns", ln.binScanNS, 0)
	r.set("feed.csv_parse_ns_per_sample", "ns", ln.csvParseNS, 0)
	r.set("server.observe_batch_ns_per_sample", "ns", ln.observeBatchNS, 0)
	open := ln.openStreamUS
	if len(lr.opens) > 0 {
		open = mean(durations(lr.opens, time.Microsecond))
	}
	r.set("server.open_stream_us", "us", open, 0)
	scrape, n := ln.scrapeMS, 10
	if len(lr.scrapes) > 0 {
		scrape, n = median(durations(lr.scrapes, time.Millisecond)), len(lr.scrapes)
	}
	r.set("server.metrics_scrape_ms", "ms", scrape, n)
	r.set("server.alarm_encode_ns", "ns", ln.alarmEncodeNS, 0)
	r.set("server.profile_bytes_per_vm", "B", ln.profileBytesPerVM, 0)
	r.set("detect.build_profile_ms_p50", "ms", ln.buildProfileMS, 0)
	r.set("detect.observe_ns_per_sample", "ns", ln.observeNS, 0)
	for scheme, ns := range ln.perScheme {
		r.set("detect.observe_ns_per_sample."+scheme, "ns", ns, 0)
	}
	r.set("detect.state_bytes_per_vm", "B", ln.stateBytesPerVM, 0)
	r.set("signal.period_estimate_us", "us", ln.periodEstimateUS, 0)
	gcFrac := 0.0
	if d := lr.rt1.totalCPU - lr.rt0.totalCPU; d > 0 {
		gcFrac = (lr.rt1.gcCPU - lr.rt0.gcCPU) / d
	}
	r.set("runtime.gc_cpu_frac", "ratio", gcFrac, 0)
	r.set("runtime.gc_pause_p99_us", "us", float64(gcPauseP99(lr.rt0, lr.rt1))/float64(time.Microsecond), 0)
	r.set("runtime.heap_peak_mb", "MB", float64(lr.heapPeak)/(1<<20), 0)
	r.set("ledger.unattributed_ns_per_sample", "ns", lr.cpuNS-lr.attributedNS(ln), 0)
	r.set("trace.overhead_frac", "ratio", lr.overhead, 0)
}
