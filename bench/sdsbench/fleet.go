package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/server"
	"github.com/memdos/sds/internal/workload"
)

// The fleet workload is an in-process server.New with 4000 OpenStreams and
// no sockets: 4000 detectors and Stage-1 windows far exceed the caches and
// dominate memory, and BuildProfile and every scheme in the zoo run at
// scale. VM i runs workload.AppNames()[i%10] (pca and facenet are
// periodic, so SDS/P and the period estimator run too) and scheme sds,
// except that every 8th VM rotates through the zoo. Its stream is one of
// 20 shared streams, one per (app, attack) pair: bus lock from t = 50 s
// when i%4 ∈ {0,1}, LLC cleansing when i%4 = 2, no attack when i%4 = 3.
//
// 4000 VMs keep the peak resident set near 600 MB (every VM holds its
// 30 s Stage-1 window at once, about 72 KB); the streams are long enough
// that a 15 s monitored phase at 40 M samples/s does not run out.
const (
	fleetVMs            = 4000
	fleetStreams        = 20
	fleetStreamSeconds  = 1800
	fleetProfileSeconds = 30
	fleetAttackAt       = 50
	// fleetGroups is the period of the (stream, scheme) assignment: VMs i
	// and i+fleetGroups receive identical inputs and must alarm alike.
	fleetGroups = 160
	// fleetPinSeconds is the stream prefix the pinned digest covers.
	fleetPinSeconds = 600
	// fleetCorpusSeconds is how much of each stream the traced run
	// replays through the layers.
	fleetCorpusSeconds = 120
	fleetSetups        = 3
)

var fleetZoo = []string{"cusum", "timefrag", "ewmavar", "kstest"}

func fleetApp(i int) string { return workload.AppNames()[i%len(workload.AppNames())] }

func fleetScheme(i int) string {
	if i%8 == 7 {
		return fleetZoo[(i/8)%len(fleetZoo)]
	}
	return "sds"
}

func renderFleetStream(seed uint64, k, seconds int) ([]pcm.Sample, error) {
	var sched attack.Schedule
	switch k % 4 {
	case 0, 1:
		sched = attack.Schedule{Kind: attack.BusLock, Start: fleetAttackAt, Ramp: 10}
	case 2:
		sched = attack.Schedule{Kind: attack.Cleanse, Start: fleetAttackAt, Ramp: 10}
	}
	return renderStream(seed, fmt.Sprintf("fleet/stream-%d", k), fleetApp(k), seconds*samplesPerSecond, sched)
}

type fleetVM struct {
	spec     server.StreamSpec
	sess     *server.Session
	samples  []pcm.Sample
	alarms   []detect.Alarm
	frames   int // frames delivered
	offered  int64
	accepted int64
	errs     int64
	trace    int32
}

type fleet struct {
	srv   *server.Server
	vms   []*fleetVM
	opens []time.Duration
}

// newFleet opens one in-process stream per VM.
func newFleet(streams [][]pcm.Sample, n int, tr *tracer, parent int32) (*fleet, error) {
	fl := &fleet{srv: server.New(server.Options{ProfileSeconds: fleetProfileSeconds}), vms: make([]*fleetVM, n)}
	for i := range fl.vms {
		vm := &fleetVM{samples: streams[i%len(streams)]}
		vm.spec = server.StreamSpec{VM: fmt.Sprintf("vm-%05d", i), App: fleetApp(i), Scheme: fleetScheme(i),
			ProfileSeconds: fleetProfileSeconds}
		if tr != nil {
			vm.trace = tr.trace(vm.spec.VM)
		}
		spec := vm.spec
		spec.OnAlarm = func(a detect.Alarm) error { vm.alarms = append(vm.alarms, a); return nil }
		start := time.Now()
		st, err := fl.srv.OpenStream(spec)
		end := time.Now()
		if err != nil {
			return nil, err
		}
		tr.record(vm.trace, parent, "server.open_stream", "", start, end)
		fl.opens = append(fl.opens, end.Sub(start))
		vm.sess = st.Session()
		fl.vms[i] = vm
	}
	return fl, nil
}

// round sends every VM its next frame, round-robin, through
// Stream.Session().ObserveBatch. lat, when non-nil, receives each call's
// duration in milliseconds. It returns the samples offered.
func (fl *fleet) round(lat *[]float64, tr *tracer, parent int32, tag string) int {
	sent := 0
	for _, vm := range fl.vms {
		lo := vm.frames * frameSamples
		if lo >= len(vm.samples) {
			continue
		}
		frame := vm.samples[lo:min(lo+frameSamples, len(vm.samples))]
		start := time.Now()
		n, err := vm.sess.ObserveBatch(frame)
		end := time.Now()
		if lat != nil {
			*lat = append(*lat, float64(end.Sub(start))/float64(time.Millisecond))
		}
		tr.record(vm.trace, parent, "server.observe_batch", tag, start, end)
		vm.frames++
		vm.offered += int64(len(frame))
		vm.accepted += int64(n)
		if err != nil {
			vm.errs++
		}
		sent += len(frame)
	}
	return sent
}

// stage1 runs rounds until no VM is still profiling.
func (fl *fleet) stage1(tr *tracer, parent int32) error {
	for {
		if fl.round(nil, tr, parent, "boundary") == 0 {
			return fmt.Errorf("streams ended inside the Stage-1 window")
		}
		profiling := false
		for _, vm := range fl.vms {
			if vm.sess.Profiling() {
				profiling = true
				break
			}
		}
		if !profiling {
			return nil
		}
	}
}

// scraper polls Server.Metrics once a second and JSON-encodes the
// snapshot, as an ops poller of /metricsz would.
func scraper(srv *server.Server, tr *tracer, parent int32, stop <-chan struct{}, out chan<- []time.Duration) {
	var times []time.Duration
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- times
			return
		case <-tick.C:
		}
		start := time.Now()
		if err := json.NewEncoder(io.Discard).Encode(srv.Metrics()); err != nil {
			fmt.Fprintln(os.Stderr, "sdsbench: encoding metrics:", err)
		}
		end := time.Now()
		tr.record(-1, parent, "server.metrics_scrape", "", start, end)
		times = append(times, end.Sub(start))
	}
}

func runFleet(cfg *runConfig) (*result, *layerRun, error) {
	r := newResult()
	tr := cfg.tr
	nVMs, seconds, setups := fleetVMs, fleetStreamSeconds, fleetSetups
	if cfg.quick {
		nVMs, seconds, setups = 200, fleetCorpusSeconds, 2
	}
	genStart := time.Now()
	streams := make([][]pcm.Sample, fleetStreams)
	for k := range streams {
		s, err := renderFleetStream(cfg.seed, k, seconds)
		if err != nil {
			return nil, nil, err
		}
		streams[k] = s
	}
	genDur := time.Since(genStart)

	// Memory peaks in Stage 1, when every VM holds its profile window. An
	// untimed probe fleet measures the live heap there, after one round.
	baseline := liveHeap()
	probe, err := newFleet(streams, nVMs, nil, -1)
	if err != nil {
		return nil, nil, err
	}
	probe.round(nil, nil, -1, "")
	bytesPerVM := float64(int64(liveHeap())-int64(baseline)) / float64(nVMs)
	runtime.KeepAlive(probe)
	runtime.GC()

	var fl *fleet
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		if fl != nil {
			fl = nil
			runtime.GC()
		}
		id := tr.begin(-1, -1, "fleet.setup", "")
		start := time.Now()
		if fl, err = newFleet(streams, nVMs, tr, id); err != nil {
			return nil, nil, err
		}
		if err := fl.stage1(tr, id); err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		tr.end(id)
	}

	// Monitored phase: whole rounds until the time is up or the streams
	// run out.
	phase := tr.begin(-1, -1, "fleet.monitor", "")
	stop, scrapes := make(chan struct{}), make(chan []time.Duration, 1)
	go scraper(fl.srv, tr, phase, stop, scrapes)
	// Rounds are grouped into one-second slices, each slice's frame
	// latencies kept apart. A traced run records spans in odd rounds only
	// and compares the two kinds' rates.
	type slice struct {
		samples   int
		wall, cpu time.Duration
		lat       []float64
	}
	var slices []*slice
	var classRates [2][]float64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; ; round++ {
		rt, traced := tr, round%2
		if traced == 0 {
			rt = nil
		}
		cpu0, rs := selfCPU(), time.Now()
		if k := int(rs.Sub(start) / time.Second); k >= len(slices) {
			slices = append(slices, &slice{})
		}
		s := slices[len(slices)-1]
		n := fl.round(&s.lat, rt, phase, "monitored")
		wall, cpu := time.Since(rs), selfCPU()-cpu0
		if n == 0 {
			break
		}
		s.samples += n
		s.wall += wall
		s.cpu += cpu
		classRates[traced] = append(classRates[traced], float64(n)/wall.Seconds())
		if time.Now().After(deadline) {
			break
		}
	}
	close(stop)
	scrapeTimes := <-scrapes
	tr.end(phase)
	if last := slices[len(slices)-1]; last.samples == 0 {
		slices = slices[:len(slices)-1] // the round that found the streams used up
	}
	if len(slices) == 0 {
		return nil, nil, fmt.Errorf("the monitored phase delivered no samples")
	}
	cost := make([]float64, len(slices))
	for i, s := range slices {
		cost[i] = s.wall.Seconds() / float64(s.samples)
	}
	var quiet slice
	quietSlices := quietest(cost)
	for _, k := range quietSlices {
		s := slices[k]
		quiet.samples += s.samples
		quiet.wall += s.wall
		quiet.cpu += s.cpu
		quiet.lat = append(quiet.lat, s.lat...)
	}
	lr := &layerRun{scrapes: scrapeTimes, opens: fl.opens, cpuNS: float64(quiet.cpu) / float64(quiet.samples),
		genNS:        float64(genDur) / float64(fleetStreams*seconds*samplesPerSecond),
		attributedNS: func(ln layerNumbers) float64 { return ln.observeBatchNS }}
	if tr != nil && len(classRates[1]) > 0 {
		lr.overhead = median(classRates[0])/median(classRates[1]) - 1
	}
	hwm, err := procStatusKB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, nil, err
	}

	for _, vm := range fl.vms {
		r.Attempted += vm.offered
		r.Failed += vm.offered - vm.accepted + vm.errs
		if got := int64(vm.sess.Stats().Ingested()); got != vm.offered {
			r.mismatch("%s: offered %d samples, session ingested %d", vm.spec.VM, vm.offered, got)
		}
	}
	if err := checkFleetAlarms(r, fl, nVMs); err != nil {
		return nil, nil, err
	}
	setup, n := quietMedian(setupTimes)
	r.set("setup_s", "s", setup, n)
	r.set("sps", "samples/s", float64(quiet.samples)/quiet.wall.Seconds(), len(quietSlices))
	r.set("cpu_ns_per_sample", "ns", lr.cpuNS, len(quietSlices))
	r.set("latency_p50_ms", "ms", percentile(quiet.lat, 0.50), len(quiet.lat))
	r.set("latency_p90_ms", "ms", percentile(quiet.lat, 0.90), len(quiet.lat))
	r.set("latency_p99_ms", "ms", percentile(quiet.lat, 0.99), len(quiet.lat))
	r.set("bytes_per_vm", "B", bytesPerVM, nVMs)
	r.set("rss_mb", "MB", float64(hwm)/1024, 1)
	r.set("fleet.rounds", "count", float64(fl.vms[0].frames), 0)

	if tr != nil {
		for _, vm := range fl.vms[:min(fleetGroups, nVMs)] {
			lr.corpus = append(lr.corpus, corpusStream{app: vm.spec.App, scheme: vm.spec.Scheme, profile: fleetProfileSeconds,
				samples: vm.samples[:min(len(vm.samples), fleetCorpusSeconds*samplesPerSecond)]})
		}
	}
	return r, lr, nil
}

// checkFleetAlarms is the fleet oracle: VMs that share a (stream, scheme)
// received identical frames and must raise identical alarms, and a serial
// server.NewSession replay of one VM per pair must match them. When the
// pairs got past the pinned stream prefix it digests their alarms there.
func checkFleetAlarms(r *result, fl *fleet, n int) error {
	groups := min(fleetGroups, n)
	for i := groups; i < n; i++ {
		if !sameAlarms(fl.vms[i].alarms, fl.vms[i%groups].alarms) {
			r.mismatch("%s and %s share inputs but raised different alarms (%d vs %d)",
				fl.vms[i].spec.VM, fl.vms[i%groups].spec.VM, len(fl.vms[i].alarms), len(fl.vms[i%groups].alarms))
		}
	}
	h := fnv.New64a()
	pinned := true
	for g := 0; g < groups; g++ {
		vm := fl.vms[g]
		pinned = pinned && vm.frames*frameSamples >= fleetPinSeconds*samplesPerSecond
		var want []detect.Alarm
		spec := vm.spec
		spec.OnAlarm = func(a detect.Alarm) error { want = append(want, a); return nil }
		sess, err := server.NewSession(spec)
		if err != nil {
			return err
		}
		for f := 0; f < vm.frames; f++ {
			lo := f * frameSamples
			if _, err := sess.ObserveBatch(vm.samples[lo:min(lo+frameSamples, len(vm.samples))]); err != nil {
				return fmt.Errorf("replaying %s: %w", spec.VM, err)
			}
		}
		if !sameAlarms(vm.alarms, want) {
			r.mismatch("%s: raised %d alarms in the fleet, %d in a serial replay", spec.VM, len(vm.alarms), len(want))
		}
		for _, a := range want {
			if a.T <= fleetPinSeconds {
				hashAlarm(h, g, a)
			}
		}
	}
	if pinned {
		r.Digest = fmt.Sprintf("%016x", h.Sum64())
	}
	return nil
}

func sameAlarms(a, b []detect.Alarm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].Detector != b[i].Detector || a[i].Metric != b[i].Metric {
			return false
		}
	}
	return true
}
