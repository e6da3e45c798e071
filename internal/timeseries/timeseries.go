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
type MovingAverager struct {
	w, dw int
	buf   []float64 // ring buffer of the last w samples
	next  int       // ring index of the next slot to overwrite
	count int       // total samples observed
	sum   float64
	since int // samples since last emission
}

// healRatio is how far an evicted value may outweigh the rest of the
// window before Push recomputes the sum. The rounding error a value leaves
// in the sum is at most about W·2^-53 of its size, so at 2^10 the rest
// keeps about 2e-11 relative accuracy for the Table 1 window (W = 200).
const healRatio = 1 << 10

// NewMovingAverager returns a streaming moving averager with window size w
// and step size dw.
func NewMovingAverager(w, dw int) (*MovingAverager, error) {
	if w <= 0 || dw <= 0 || dw > w {
		return nil, fmt.Errorf("%w (W=%d, ΔW=%d)", ErrBadWindow, w, dw)
	}
	return &MovingAverager{w: w, dw: dw, buf: make([]float64, w)}, nil
}

// Window returns the configured window size W.
func (m *MovingAverager) Window() int { return m.w }

// Step returns the configured step size ΔW.
func (m *MovingAverager) Step() int { return m.dw }

// Push observes one raw sample. It returns the new moving-average value and
// true when a window boundary is reached, otherwise (0, false).
//
// The warm path (window full) comes first and touches neither count nor the
// fill logic: on the ingest hot path virtually every call lands there, and
// the detector pipeline runs several averagers per raw sample. The eviction
// subtract and the insertion add stay separate statements — fusing them into
// sum += x - old changes the rounding and would break the bit-exact golden
// transcripts.
//
// The running sum heals itself. When the evicted value outweighs what
// remains by more than healRatio (or the sum is NaN), the rounding error the
// evicted value left behind can swamp the rest, so the sum is recomputed
// from the ring. An infinite sum, which the ratio test cannot see, is
// recomputed at the next emission. Ordinary streams take neither branch.
func (m *MovingAverager) Push(x float64) (float64, bool) {
	if m.count >= m.w {
		old := m.buf[m.next]
		m.sum -= old
		m.buf[m.next] = x
		// Conditional wrap: integer division is measurably slower than a
		// predictable branch on this per-sample path.
		if m.next++; m.next == m.w {
			m.next = 0
		}
		if math.Abs(old) <= healRatio*math.Abs(m.sum) {
			m.sum += x
		} else {
			m.resum()
		}
		if m.since++; m.since == m.dw {
			m.since = 0
			if math.IsInf(m.sum, 0) {
				m.resum()
			}
			return m.sum / float64(m.w), true
		}
		return 0, false
	}
	m.buf[m.next] = x
	if m.next++; m.next == m.w {
		m.next = 0
	}
	m.sum += x
	m.count++
	if m.count < m.w {
		return 0, false
	}
	m.since = 0
	return m.sum / float64(m.w), true
}

// resum recomputes the running sum from the full ring.
func (m *MovingAverager) resum() {
	m.sum = 0
	for _, v := range m.buf {
		m.sum += v
	}
}

// Reset discards all buffered samples.
func (m *MovingAverager) Reset() {
	m.count, m.next, m.since, m.sum = 0, 0, 0, 0
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
