// Package timeseries implements the data-preprocessing primitives of the SDS
// detection pipeline (paper §4.1): sliding-window moving averages (Eq. 1),
// exponentially weighted moving averages (Eq. 2), and the summary statistics
// used to build detection profiles.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadWindow reports invalid moving-average window geometry.
var ErrBadWindow = errors.New("timeseries: window and step sizes must be positive and step must not exceed window")

// MovingAverager computes the sliding-window moving average of a stream
// (paper Eq. 1): the average of the last W raw samples, emitted once the
// first window fills and then every ΔW new samples.
//
// Eq. 1 is only read at ΔW boundaries, so the averager keeps no raw
// samples. It cuts the stream into blocks of g = gcd(W, ΔW) samples and
// keeps a ring of the last W/g block means; every window boundary is a
// block boundary, and M_n is the mean of the ring's block means. Push
// accumulates one block and hands its mean to PushBlock; a caller that
// already has block means (cloudsim's window fidelity draws one per ΔW
// samples) calls PushBlock directly and gets the same arithmetic.
//
// Every emission sums the ring afresh, so a corrupt sample (even one that
// overflows to ±Inf or NaN) leaves the average exactly when its block
// leaves the window.
type MovingAverager struct {
	g      int       // block length gcd(W, ΔW)
	stride int       // blocks per step, ΔW/g
	blocks []float64 // ring of the last W/g block means
	next   int       // ring index of the next block to overwrite
	wait   int       // blocks still to push before the next emission
	bn     int       // samples in the current block
	bsum   float64   // sum of the current block
}

// NewMovingAverager returns a streaming moving averager with window size w
// and step size dw.
func NewMovingAverager(w, dw int) (*MovingAverager, error) {
	if w <= 0 || dw <= 0 || dw > w {
		return nil, fmt.Errorf("%w (W=%d, ΔW=%d)", ErrBadWindow, w, dw)
	}
	g := gcd(w, dw)
	return &MovingAverager{g: g, stride: dw / g, blocks: make([]float64, w/g), wait: w / g}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Push observes one raw sample. It returns the new moving-average value and
// true when a window boundary is reached, otherwise (0, false).
func (m *MovingAverager) Push(x float64) (float64, bool) {
	m.bsum += x
	if m.bn++; m.bn < m.g {
		return 0, false
	}
	mean := m.bsum / float64(m.g)
	m.bn, m.bsum = 0, 0
	return m.PushBlock(mean)
}

// PushBlock observes the mean of one block of gcd(W, ΔW) consecutive
// samples. It returns the new moving-average value and true when the block
// ends a window, otherwise (0, false). It must not be mixed with Push
// inside a block.
func (m *MovingAverager) PushBlock(mean float64) (float64, bool) {
	m.blocks[m.next] = mean
	// Conditional wrap: integer division is measurably slower than a
	// predictable branch on this path.
	if m.next++; m.next == len(m.blocks) {
		m.next = 0
	}
	if m.wait--; m.wait > 0 {
		return 0, false
	}
	m.wait = m.stride
	var sum float64
	for _, b := range m.blocks {
		sum += b
	}
	return sum / float64(len(m.blocks)), true
}

// Reset discards all buffered samples.
func (m *MovingAverager) Reset() {
	m.next, m.wait, m.bn, m.bsum = 0, len(m.blocks), 0, 0
}

// EWMA computes the exponentially weighted moving average (paper Eq. 2):
// S_0 = M_0 and S_n = (1-α)·S_{n-1} + α·M_n. The zero value is not usable;
// construct with NewEWMA.
type EWMA struct {
	alpha   float64
	val     float64
	started bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. alpha=1
// reproduces the raw input (no smoothing), matching the paper's observation
// that α=1 degenerates EWMA into MA when fed MA values.
func NewEWMA(alpha float64) (*EWMA, error) {
	if !(alpha > 0 && alpha <= 1) { // written to also reject NaN
		return nil, fmt.Errorf("timeseries: EWMA smoothing factor must be in (0, 1], got %v", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Alpha returns the smoothing factor.
func (e *EWMA) Alpha() float64 { return e.alpha }

// Push observes one value and returns the smoothed result.
func (e *EWMA) Push(x float64) float64 {
	if !e.started {
		e.started = true
		e.val = x
		return x
	}
	e.val = (1-e.alpha)*e.val + e.alpha*x
	return e.val
}

// Value returns the current smoothed value (0 before the first Push).
func (e *EWMA) Value() float64 { return e.val }

// Reset discards the smoothing state.
func (e *EWMA) Reset() { e.started, e.val = false, 0 }

// MovingAverage computes the batch moving average of data with window w and
// step dw, returning one value per emitted window.
func MovingAverage(data []float64, w, dw int) ([]float64, error) {
	m, err := NewMovingAverager(w, dw)
	if err != nil {
		return nil, err
	}
	// One emission when the window fills, then one per dw samples.
	var out []float64
	if n := len(data); n >= w {
		out = make([]float64, 0, 1+(n-w)/dw)
	}
	for _, x := range data {
		if v, ok := m.Push(x); ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// EWMASeries applies EWMA smoothing to the whole series.
func EWMASeries(data []float64, alpha float64) ([]float64, error) {
	e, err := NewEWMA(alpha)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(data))
	for i, x := range data {
		out[i] = e.Push(x)
	}
	return out, nil
}

// Mean returns the arithmetic mean of data (0 for empty input).
func Mean(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	var sum float64
	for _, x := range data {
		sum += x
	}
	return sum / float64(len(data))
}

// StdDev returns the population standard deviation of data (0 for fewer than
// two points). The profile bounds in the paper use the population form.
func StdDev(data []float64) float64 {
	if len(data) < 2 {
		return 0
	}
	mean := Mean(data)
	var ss float64
	for _, x := range data {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(data)))
}

// MinMax returns the minimum and maximum of data. It panics on empty input
// since there is no sensible zero answer.
func MinMax(data []float64) (lo, hi float64) {
	if len(data) == 0 {
		panic("timeseries: MinMax of empty series")
	}
	lo, hi = data[0], data[0]
	for _, x := range data[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of data using linear
// interpolation between closest ranks. It panics on empty input.
func Percentile(data []float64, p float64) float64 {
	if len(data) == 0 {
		panic("timeseries: Percentile of empty series")
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the descriptive statistics reported throughout the
// evaluation: the paper reports medians with 10th/90th percentile error bars.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	P10, Median, P90 float64
}

// Summarize computes a Summary of data. Empty input yields a zero Summary.
func Summarize(data []float64) Summary {
	if len(data) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	return Summary{
		N:      len(data),
		Mean:   Mean(data),
		Std:    StdDev(data),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P10:    percentileSorted(sorted, 10),
		Median: percentileSorted(sorted, 50),
		P90:    percentileSorted(sorted, 90),
	}
}

// Demean returns data shifted to zero mean.
func Demean(data []float64) []float64 {
	mean := Mean(data)
	out := make([]float64, len(data))
	for i, x := range data {
		out[i] = x - mean
	}
	return out
}
