package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/cloudsim"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// The cloudsim-dc workload runs cloudsim.Run on the datacenter scenario in
// bench/cloudsim-dc.json: 40 hosts × 8 VMs × 900 s at window fidelity,
// every VM monitored, mixed attackers and the throttle-then-migrate
// policy. Detection is reached only through ObserveMA, plus the event
// engine, so a change to the per-sample ingest path must not move it.
//
// A run of the workload covers cloudsimScenarios scenario seeds derived
// from --seed, in passes over all of them. One seed alone would decide
// too much: cloudsim builds one Stage-1 profile per app, the period SDS/P
// estimates from a periodic app's profile sets the periodogram length of
// every VM running that app, and on one 250-host scenario that single draw
// moved the run's time by a third from seed to seed.
const (
	cloudsimScenario  = "bench/cloudsim-dc.json"
	cloudsimScenarios = 16
	cloudsimParses    = 1000
	cloudsimMinPasses = 2
)

func runCloudsim(cfg *runConfig) (*result, *layerRun, error) {
	r := newResult()
	tr := cfg.tr
	data, err := os.ReadFile(filepath.Join(cfg.root, cloudsimScenario))
	if err != nil {
		return nil, nil, err
	}
	// Set-up is parsing the scenario; users pay everything else on every
	// run, so it sits in the run time. The first cloudsimParses parses warm
	// the allocator and caches and are not counted; the timed ones come in
	// blocks of cloudsimParses before every pass, because a whole process's
	// worth of parses at start-up came out either about 5 or about 8 µs.
	sc, err := cloudsim.ParseScenario(data)
	if err != nil {
		return nil, nil, err
	}
	var parses []float64
	parseBlock := func(timed bool) error {
		for i := 0; i < cloudsimParses; i++ {
			start := time.Now()
			if _, err := cloudsim.ParseScenario(data); err != nil {
				return err
			}
			if timed {
				parses = append(parses, time.Since(start).Seconds())
			}
		}
		return nil
	}
	if err := parseBlock(false); err != nil {
		return nil, nil, err
	}
	scenarios := cloudsimScenarios
	if cfg.quick {
		sc.Hosts, sc.Attackers, sc.ChurnArrivalsPerMin = 20, 2, 2
		scenarios = 2
	}
	seeds := make([]uint64, scenarios)
	for j := range seeds {
		seeds[j] = randx.DeriveString(cfg.seed, fmt.Sprintf("cloudsim/%d", j)).Uint64()
	}

	// A warm-up run of the first scenario measures memory, the largest live
	// heap while it runs over the live heap before it. Its time is not
	// counted.
	sc.Seed = seeds[0]
	var res cloudsim.Result
	baseline, peak := peakLiveHeap(func() { res, err = cloudsim.Run(sc) })
	r.Attempted++
	if err != nil {
		return nil, nil, err
	}
	vms := res.VMs
	first := make([][]byte, scenarios) // each scenario's Result JSON
	if first[0], err = json.Marshal(res); err != nil {
		return nil, nil, err
	}

	// Timed passes over every scenario, as many as fit --seconds. Each
	// run's Result JSON must equal its scenario's first.
	walls := make([][]float64, scenarios) // per scenario, per pass
	cpus := make([][]float64, scenarios)
	results := make([]cloudsim.Result, scenarios)
	var passWalls [2][]float64 // untraced, traced passes
	begin := time.Now()
	for pass, passes := 0, cloudsimMinPasses; pass < passes; pass++ {
		if err := parseBlock(true); err != nil {
			return nil, nil, err
		}
		traced := pass % 2
		passStart := time.Now()
		for j, seed := range seeds {
			sc.Seed = seed
			r.Attempted++
			var id int32 = -1
			if traced == 1 {
				id = tr.begin(tr.trace(fmt.Sprintf("pass-%d/scenario-%d", pass, j)), -1, "cloudsim.run", "")
			}
			cpu0, start := selfCPU(), time.Now()
			res, err := cloudsim.Run(sc)
			wall, cpu := time.Since(start), selfCPU()-cpu0
			tr.end(id)
			if err != nil {
				r.Failed++
				fmt.Fprintln(os.Stderr, "sdsbench: cloudsim run:", err)
				continue
			}
			walls[j] = append(walls[j], wall.Seconds())
			cpus[j] = append(cpus[j], cpu.Seconds())
			out, err := json.Marshal(res)
			if err != nil {
				return nil, nil, err
			}
			switch {
			case first[j] == nil:
				first[j] = out
			case !bytes.Equal(first[j], out):
				r.mismatch("cloudsim scenario %d, pass %d: Result JSON differs from its first run", j, pass)
			}
			results[j] = res
		}
		passWalls[traced] = append(passWalls[traced], time.Since(passStart).Seconds())
		if pass == 0 {
			passes = max(cloudsimMinPasses, int(math.Round(cfg.seconds/time.Since(begin).Seconds())))
		}
	}

	// Each scenario's time is its quietest pass (the median of the
	// quietest quarter); the latencies are over scenarios, the rates over
	// their sums.
	var runMS []float64
	var wall, cpu, samples, events, blocks float64
	var alarms, migrations int
	h := fnv.New64a()
	for j := range seeds {
		if len(walls[j]) == 0 {
			continue
		}
		quiet := quietest(walls[j])
		w, c := median(pick(walls[j], quiet)), median(pick(cpus[j], quiet))
		runMS = append(runMS, w*1000)
		wall += w
		cpu += c
		res := results[j]
		samples += float64(res.SamplesRepresented)
		events += float64(res.Events)
		blocks += float64(res.Blocks)
		alarms += res.Alarms
		migrations += res.Migrations
		binary.Write(h, binary.LittleEndian, res.AlarmDigest)
	}
	if len(runMS) < scenarios {
		return nil, nil, fmt.Errorf("%d of %d cloudsim scenarios failed in every pass", scenarios-len(runMS), scenarios)
	}
	lr := &layerRun{attributedNS: func(layerNumbers) float64 { return 0 }}
	if tr != nil && len(passWalls[1]) > 0 {
		lr.overhead = median(passWalls[1])/median(passWalls[0]) - 1
	}
	hwm, err := procStatusKB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, nil, err
	}
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
	cpuNS := cpu * 1e9 / samples
	setup, n := quietMedian(parses)
	r.set("setup_s", "s", setup, n)
	r.set("sps", "samples/s", samples/wall, len(runMS))
	r.set("cpu_ns_per_sample", "ns", cpuNS, len(runMS))
	r.set("latency_p50_ms", "ms", percentile(runMS, 0.50), len(runMS))
	r.set("latency_p90_ms", "ms", percentile(runMS, 0.90), len(runMS))
	r.set("rss_mb", "MB", float64(hwm)/1024, 1)
	r.set("bytes_per_vm", "B", float64(int64(peak)-int64(baseline))/float64(vms), vms)
	r.set("cloudsim.events_per_s", "1/s", events/wall, 0)
	r.set("cloudsim.blocks_per_s", "1/s", blocks/wall, 0)
	r.set("cloudsim.alarms", "count", float64(alarms), 0)
	r.set("cloudsim.migrations", "count", float64(migrations), 0)
	r.set("cloudsim.passes", "count", float64(len(walls[0])), 0)

	lr.cpuNS = cpuNS
	if tr != nil {
		genStart := time.Now()
		if lr.corpus, err = cloudsimCorpus(cfg.seed); err != nil {
			return nil, nil, err
		}
		lr.genNS = float64(time.Since(genStart)) / float64(len(lr.corpus)*len(lr.corpus[0].samples))
	}
	return r, lr, nil
}

// cloudsimCorpus renders the per-layer replay inputs of the cloudsim
// workload, which has no sample streams of its own: one 600 s stream per
// scenario app with a 60 s Stage-1 window, attacked from t = 70 s by
// alternating bus locking and LLC cleansing, as the mixed attackers do.
func cloudsimCorpus(seed uint64) ([]corpusStream, error) {
	const seconds, profile, attackAt = 600, 60, 70
	var corpus []corpusStream
	for k, app := range workload.AppNames() {
		sched := attack.Schedule{Kind: attack.BusLock, Start: attackAt, Ramp: 10}
		if k%2 == 1 {
			sched.Kind = attack.Cleanse
		}
		samples, err := renderStream(seed, "cloudsim/"+app, app, seconds*samplesPerSecond, sched)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, corpusStream{app: app, scheme: "sds", profile: profile, samples: samples})
	}
	return corpus, nil
}
