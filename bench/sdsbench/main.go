// Command sdsbench measures the sdsd detection service end to end: what it
// costs the host per sample, how fast its alarms reach a client, how much
// memory it holds per VM and how long it takes to set up, on four
// workloads that stress different layers. Every workload also checks its
// outputs against an in-process oracle. Run it from the repository root:
//
//	bash bench/run.sh --workload wire-bin --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1                  # every workload
//	bash bench/run.sh --seed 1 --repeat 5       # medians and spreads
//
// Each workload runs in a fresh child process, so a workload's peak memory
// is its own. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; the lines before it
// read "workload metric value unit n". See bench/README.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// endToEnd are the metrics a user of the service sees, printed by every
// untraced run; perLayer are the traced run's layer metrics. BENCHMARK.json
// lists the same names with their units, directions and bounds.
var (
	endToEnd = []string{"setup_s", "sps", "cpu_ns_per_sample", "latency_p50_ms", "latency_p90_ms", "bytes_per_vm"}
	perLayer = []string{
		"client.gen_ns_per_sample", "net.recv_ns_per_sample",
		"feed.bin_scan_ns_per_sample", "feed.csv_parse_ns_per_sample",
		"server.observe_batch_ns_per_sample", "server.open_stream_us", "server.metrics_scrape_ms",
		"server.alarm_encode_ns", "server.profile_bytes_per_vm",
		"detect.build_profile_ms_p50", "detect.observe_ns_per_sample", "detect.state_bytes_per_vm",
		"signal.period_estimate_us",
		"runtime.gc_cpu_frac", "runtime.gc_pause_p99_us", "runtime.heap_peak_mb",
		"ledger.unattributed_ns_per_sample", "trace.overhead_frac",
	}
)

// workloadDef names a workload. Its run function measures the end-to-end
// metrics and returns what the traced run's per-layer metrics need.
type workloadDef struct {
	name string
	run  func(*runConfig) (*result, *layerRun, error)
}

var workloads = []workloadDef{
	{"wire-bin", func(c *runConfig) (*result, *layerRun, error) { return runWire(c, wireBin) }},
	{"wire-csv", func(c *runConfig) (*result, *layerRun, error) { return runWire(c, wireCSV) }},
	{"fleet-4k", runFleet},
	{"cloudsim-dc", runCloudsim},
}

const (
	samplesPerSecond = 100  // 1 / T_PCM
	frameSamples     = 1024 // samples per frame the generators send
)

func sampleT(i int) float64 { return float64(i+1) / samplesPerSecond }

// renderStream samples an app's telemetry model n times under sched, with
// a model seeded from (seed, label). Every workload's inputs come from
// here, so the same seed always gives the same inputs.
func renderStream(seed uint64, label, app string, n int, sched attack.Schedule) ([]pcm.Sample, error) {
	prof, err := workload.AppProfile(app)
	if err != nil {
		return nil, err
	}
	model, err := workload.NewModel(prof, randx.DeriveString(seed, label))
	if err != nil {
		return nil, err
	}
	out := make([]pcm.Sample, n)
	for i := range out {
		t := sampleT(i)
		a, m := model.Sample(1.0/samplesPerSecond, sched.Env(t, false))
		out[i] = pcm.Sample{T: t, Access: a, Miss: m}
	}
	return out, nil
}

// runConfig is what one workload run needs.
type runConfig struct {
	seed    uint64
	seconds float64
	quick   bool
	root    string
	sdsd    string  // sdsd binary, for the wire workloads
	tr      *tracer // nil in the untraced metric run
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value, 0 when not a sample statistic
}

// result is one workload run's outcome.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Traced     bool                   `json:"traced"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Mismatches []string               `json:"mismatches,omitempty"`
	Digest     string                 `json:"digest"`
	Metrics    map[string]metricValue `json:"metrics"`
	Provenance provenance             `json:"provenance"`
}

func newResult() *result { return &result{Metrics: make(map[string]metricValue)} }

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// mismatch records an oracle failure; a run with any is not correct.
func (r *result) mismatch(format string, args ...any) {
	const keep = 20
	if len(r.Mismatches) < keep {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.Mismatches) == 0 }

// reported returns the metric names the final line carries for this run.
func (r *result) reported() []string {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// pinsJSON holds the alarm digest every workload produces for seed 1 at
// full scale. A change that alters any alarm fails the benchmark until
// the pin is updated. Toy-scale runs, and runs too short to reach the
// pinned stream prefix, print no digest or a different one and are not
// checked.
//
//go:embed pins.json
var pinsJSON []byte

func checkPin(r *result, quick bool) error {
	if r.Seed != 1 || quick || r.Digest == "" {
		return nil
	}
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	if want, ok := pins[r.Workload]; ok && want != r.Digest {
		r.mismatch("%s: alarm digest %s, pinned %s for seed 1", r.Workload, r.Digest, want)
	}
	return nil
}

// provenance stamps a result with what produced it, so a number can never
// be carried forward without being measured again.
type provenance struct {
	Commit     string `json:"commit"`
	Modified   string `json:"modified"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	BenchHash  string `json:"bench_sha256"`
}

func stamp(root string) provenance {
	p := provenance{Commit: "unknown", Modified: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	p.BenchHash = benchHash(root)
	return p
}

// benchHash hashes BENCHMARK.json and every file under bench/.
func benchHash(root string) string {
	h := sha256.New()
	add := func(rel string) {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	add("BENCHMARK.json")
	var files []string
	filepath.WalkDir(filepath.Join(root, "bench"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if rel, err := filepath.Rel(root, path); err == nil {
				files = append(files, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		add(f)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Every process a child starts is tracked so the watchdog can stop it.
var procs struct {
	sync.Mutex
	live []*os.Process
}

func track(p *os.Process) {
	procs.Lock()
	procs.live = append(procs.live, p)
	procs.Unlock()
}

func untrack(p *os.Process) {
	procs.Lock()
	procs.live = slices.DeleteFunc(procs.live, func(q *os.Process) bool { return q == p })
	procs.Unlock()
}

// childTimeout bounds one workload run, set-up and oracle included.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	jsonOut  string
	spans    string
	root     string
	child    bool
	sdsd     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: wire-bin, wire-csv, fleet-4k or cloudsim-dc (default: all, in that order)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; repetition k of -repeat uses seed+k")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload run")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced variant, prints the per-layer metrics and writes the spans")
	flag.BoolVar(&o.quick, "quick", false, "toy scale: 1.5 s runs at 1/10 of the wire rates, 200 VMs × 120 s, two 20-host cloudsim scenarios")
	flag.IntVar(&o.repeat, "repeat", 1, "run each workload this many times in alternating order and print medians, quartiles and spreads")
	flag.StringVar(&o.jsonOut, "json", "", "also write every result, with provenance, to this JSON file")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans-<workload>.json under -root)")
	flag.StringVar(&o.root, "root", ".", "repository root (holds cmd/sdsd, bench/ and BENCHMARK.json)")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its result as JSON")
	flag.StringVar(&o.sdsd, "sdsd", "", "internal: the sdsd binary a child drives")
	flag.Parse()
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes o and reports whether every result was correct.
func run(o options, stdout io.Writer) (bool, error) {
	switch {
	case o.trace != 0 && o.trace != 1:
		return false, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	case !(o.seconds > 0 && o.seconds <= 120):
		return false, fmt.Errorf("-seconds must be in (0, 120], got %v", o.seconds)
	case o.repeat < 1:
		return false, fmt.Errorf("-repeat must be at least 1, got %d", o.repeat)
	}
	var selected []workloadDef
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.child {
		r, err := runChild(o, selected[0])
		if err != nil {
			return false, err
		}
		return r.correct(), json.NewEncoder(stdout).Encode(r)
	}

	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return false, err
	}
	if o.sdsd == "" {
		o.sdsd = filepath.Join(build, "sdsd")
		cmd := exec.Command("go", "build", "-o", o.sdsd, "./cmd/sdsd")
		cmd.Dir, cmd.Stdout, cmd.Stderr = o.root, os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return false, fmt.Errorf("building sdsd: %w", err)
		}
	}
	var results []*result
	for k := 0; k < o.repeat; k++ {
		order := slices.Clone(selected)
		if k%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			r, err := spawn(o, w.name, o.seed+uint64(k))
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(stdout, r)
			results = append(results, r)
		}
	}
	if o.repeat > 1 {
		if err := printSpreads(stdout, o.root, results); err != nil {
			return false, err
		}
	}
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return printFinal(stdout, results)
}

// runChild runs one workload in this process.
func runChild(o options, w workloadDef) (*result, error) {
	watchdog := time.AfterFunc(childTimeout, func() {
		procs.Lock()
		for _, p := range procs.live {
			p.Kill()
			p.Wait()
		}
		fmt.Fprintf(os.Stderr, "sdsbench: %s did not finish within %v\n", w.name, childTimeout)
		os.Exit(1)
	})
	defer watchdog.Stop()
	cfg := &runConfig{seed: o.seed, seconds: o.seconds, quick: o.quick, root: o.root, sdsd: o.sdsd}
	if o.quick {
		cfg.seconds = min(cfg.seconds, 1.5)
	}
	var rt0 runtimeStats
	var heap *heapSampler
	if o.trace == 1 {
		cfg.tr = newTracer()
		rt0, heap = readRuntimeStats(), startHeapSampler()
	}
	r, lr, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.tr != nil {
		lr.rt0, lr.rt1, lr.heapPeak = rt0, readRuntimeStats(), heap.peak()
		ln, err := replayLayers(cfg.tr, lr.corpus, o.quick)
		if err != nil {
			return nil, err
		}
		setLayerMetrics(r, ln, lr)
	}
	r.Workload, r.Seed, r.Traced = w.name, o.seed, o.trace == 1
	if err := checkPin(r, o.quick); err != nil {
		return nil, err
	}
	for _, name := range r.reported() {
		if v, ok := r.Metrics[name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", name, v.Value)
		}
	}
	r.Provenance = stamp(o.root)
	if cfg.tr != nil {
		path := o.spans
		if path == "" {
			path = filepath.Join(o.root, ".bench_build", "spans-"+w.name+".json")
		}
		if err := cfg.tr.write(path, w.name); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r, nil
}

// spawn runs one workload in a fresh child process of this binary.
func spawn(o options, name string, seed uint64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
		"-root", o.root, "-sdsd", o.sdsd}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout+5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	var exit *exec.ExitError
	if runErr != nil && !(errors.As(runErr, &exit) && !r.correct()) {
		return nil, runErr
	}
	return &r, nil
}

// printResult prints "workload metric value unit n" lines: the reported
// metrics first, then the run's other measurements, then its digest,
// oracle failures and provenance as comments.
func printResult(w io.Writer, r *result) {
	names := slices.Clone(r.reported())
	var extra []string
	for name := range r.Metrics {
		if !slices.Contains(names, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range append(names, extra...) {
		v := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s %d\n", r.Workload, name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit, v.N)
	}
	p, digest := r.Provenance, r.Digest
	if digest == "" {
		digest = "-"
	}
	fmt.Fprintf(w, "# %s seed=%d digest=%s correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, digest, r.correct(), r.Attempted, r.Failed)
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "# %s MISMATCH %s\n", r.Workload, m)
	}
	fmt.Fprintf(w, "# provenance commit=%s modified=%s go=%s nproc=%d gomaxprocs=%d cpu=%q bench_sha256=%s\n",
		p.Commit, p.Modified, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.CPUModel, p.BenchHash)
}

// printFinal prints the one-line JSON summary. With one workload run once
// the metrics are its own; otherwise each is the median over that
// workload's runs, keyed "<workload>/<metric>".
func printFinal(w io.Writer, results []*result) (bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	byWorkload := make(map[string][]*result)
	var order []string
	for _, r := range results {
		final.Correct = final.Correct && r.correct()
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		if byWorkload[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, name := range order {
		runs := byWorkload[name]
		for _, m := range runs[0].reported() {
			var vs []float64
			for _, r := range runs {
				vs = append(vs, r.Metrics[m].Value)
			}
			key := m
			if len(order) > 1 {
				key = name + "/" + m
			}
			final.Metrics[key] = value{median(vs), runs[0].Metrics[m].Unit}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return final.Correct, nil
}

// benchmarkFile is the part of BENCHMARK.json -repeat reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// printSpreads prints, per workload and reported metric, the median and
// quartiles over the repetitions and the spread (q3−q1)/median against the
// metric's bound in BENCHMARK.json.
func printSpreads(w io.Writer, root string, results []*result) error {
	bounds := make(map[string]float64)
	if b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	fmt.Fprintf(w, "# spread workload metric median q1 q3 spread bound verdict\n")
	seen := make(map[string]bool)
	for _, r := range results {
		if seen[r.Workload] {
			continue
		}
		seen[r.Workload] = true
		for _, m := range r.reported() {
			var vs []float64
			for _, s := range results {
				if s.Workload == r.Workload {
					vs = append(vs, s.Metrics[m].Value)
				}
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / math.Abs(med)
			verdict := "-"
			if b, ok := bounds[m]; ok {
				verdict = "ok"
				switch {
				case spread > b:
					verdict = "WIDER-THAN-BOUND"
				case spread > b/3:
					verdict = "above-third"
				}
			}
			fmt.Fprintf(w, "# spread %s %s %.6g %.6g %.6g %.4f %v %s\n", r.Workload, m, med, q1, q3, spread, bounds[m], verdict)
		}
	}
	return nil
}
