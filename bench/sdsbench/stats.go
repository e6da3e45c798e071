package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which
// it sorts in place. NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is percentile(xs, 0.5) without reordering the caller's slice.
func median(xs []float64) float64 { return percentile(slices.Clone(xs), 0.5) }

// quietest returns the indices of the quarter of a run's slices (set-ups,
// seconds, rounds, runs) with the lowest cost, at least one. Other tenants
// of a shared host only ever slow a slice down, and on the host this
// benchmark was sized on they did so for seconds at a time, swinging whole
// runs by a third; every metric is therefore taken over the run's
// least-disturbed quarter, which estimates the program's own speed.
func quietest(cost []float64) []int {
	idx := make([]int, len(cost))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] < cost[idx[b]] })
	return idx[:max(1, (len(idx)+3)/4)]
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, k := range idx {
		out[i] = xs[k]
	}
	return out
}

// quietMedian is the median over the quietest quarter of xs, each x being
// its slice's cost, and how many slices that quarter holds.
func quietMedian(xs []float64) (float64, int) {
	q := pick(xs, quietest(xs))
	return median(q), len(q)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// the spreads -repeat prints are the ones a reviewer recomputes by hand.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// durations converts durations to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// procStatusKB reads one "Key: N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// procCPU returns the CPU time another process has consumed: the sum of
// its threads' run times from /proc/<pid>/task/*/schedstat, in
// nanoseconds (/proc/<pid>/stat counts in 10 ms ticks).
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty schedstat", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// CPU-time clocks for clockCPU.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of this process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling OS thread
)

// clockCPU reads a CPU-time clock at nanosecond resolution; getrusage only
// advances the running threads' times at scheduler ticks.
func clockCPU(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// selfCPU returns the CPU time this process has consumed.
func selfCPU() time.Duration { return clockCPU(clockProcessCPU) }

// heapObjects reads the live-plus-unswept heap object bytes.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap is heapObjects after a full collection: the bytes reachable now.
func liveHeap() uint64 {
	runtime.GC()
	return heapObjects()
}

// markedLive reads the heap bytes the last collection marked live.
func markedLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakLiveHeap returns the live heap after a full collection, and the
// largest live heap any collection found while f ran. During f the
// collector runs whenever the heap has grown by 1% (GOGC=1), so the cycles
// follow f's live heap closely, and a sampler reads each cycle's marked
// bytes every millisecond. Collecting every 50 ms instead missed the peak
// of runs that last a few hundred milliseconds.
func peakLiveHeap(f func()) (before, peak uint64) {
	runtime.GC()
	before = markedLive()
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			select {
			case <-stop:
				done <- max(peak, markedLive())
				return
			case <-tick.C:
				peak = max(peak, markedLive())
			}
		}
	}()
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	f()
	close(stop)
	return before, <-done
}

// runtimeStats snapshots the runtime counters the runtime.* layer metrics
// are deltas of.
type runtimeStats struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

func readRuntimeStats() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		pauses:   s[2].Value.Float64Histogram(),
	}
}

// gcPauseP99 returns the 99th percentile stop-the-world GC pause between
// two snapshots, as the upper edge of its histogram bucket; 0 when no
// collection paused the world in between.
func gcPauseP99(before, after runtimeStats) time.Duration {
	counts := make([]uint64, len(after.pauses.Counts))
	var total uint64
	for i, c := range after.pauses.Counts {
		counts[i] = c - before.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := after.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.pauses.Buckets[i]
			}
			return time.Duration(hi * float64(time.Second))
		}
	}
	return 0
}

// heapSampler tracks the peak heap-object bytes while a traced phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := heapObjects()
		for {
			select {
			case <-h.stop:
				h.done <- max(peak, heapObjects())
				return
			case <-tick.C:
				peak = max(peak, heapObjects())
			}
		}
	}()
	return h
}

// peak stops the sampler and returns the highest reading.
func (h *heapSampler) peak() uint64 {
	close(h.stop)
	return <-h.done
}
