package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/signal"
)

// SDSP is the Period-based Statistical Detection Scheme for periodic
// applications (paper §4.2.2). It maintains the moving-average series of
// both cache counters, and every ΔW_P new MA values re-estimates the period
// of the latest W_P values with the DFT–ACF method; H_P consecutive rounds
// in which either counter's period deviates from the profiled normal period
// by more than the tolerance (20%) — or has no detectable period at all —
// raise the alarm.
//
// Both memory DoS attacks slow the victim's computation, so the period
// stretches under bus locking and LLC cleansing alike (Observation 2); the
// cleansing attack additionally disrupts the MissNum waveform directly.
type SDSP struct {
	cfg  Config
	prof Profile

	// SDS/P estimates periods on the moving averages M_n, so it uses only
	// the pipeline's MA pair, and an SDS member none of it (see newSDSP).
	pipeline
	bufA, bufM []float64 // rings of the latest W_P MA values
	wp         int
	pos        int
	filled     bool

	// Steady-state scratch: the period estimator (FFT plans, periodogram,
	// ACF and candidate buffers), the linearized-window buffer the rings
	// are unrolled into, and the precomputed estimator options. Together
	// they make every estimation round allocation-free.
	est        *signal.PeriodEstimator
	winScratch []float64
	estOpts    signal.PeriodOptions

	sinceEstimate int
	devCount      int
	alarmLog
	estimateHook func(PeriodStat)
}

var _ Detector = (*SDSP)(nil)

// PeriodStat is one SDS/P period estimate, exposed to hooks (paper Fig. 8b).
type PeriodStat struct {
	// T is the virtual time of the estimate.
	T float64
	// Metric is the counter the estimate was computed on.
	Metric Metric
	// Period is the estimated period in MA windows (0 when none found).
	Period int
	// Found reports whether a period was detected at all.
	Found bool
	// Deviant reports whether this estimate counted as a period change.
	Deviant bool
}

// SDSPOption customizes an SDSP detector.
type SDSPOption interface{ applySDSP(*SDSP) }

type sdspEstimateHook func(PeriodStat)

func (h sdspEstimateHook) applySDSP(d *SDSP) { d.estimateHook = h }

// WithSDSPEstimateHook registers a callback invoked at every period
// estimate (one per counter per estimation round) — used to trace the
// computed-period sequence of the paper's Fig. 8(b).
func WithSDSPEstimateHook(hook func(PeriodStat)) SDSPOption {
	return sdspEstimateHook(hook)
}

// NewSDSP returns an SDS/P detector. The profile must be periodic: SDS/P is
// only applicable to applications with repeating cache-access patterns.
func NewSDSP(prof Profile, cfg Config, opts ...SDSPOption) (*SDSP, error) {
	pipe, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return newSDSP(pipe, prof, cfg, opts...)
}

// newSDSP builds an SDS/P detector around pipe, whose MA pair only Observe
// reads. SDS passes a zero pipeline: it feeds its member through ObserveMA
// alone, so real averagers there would sit idle in every periodic VM.
func newSDSP(pipe pipeline, prof Profile, cfg Config, opts ...SDSPOption) (*SDSP, error) {
	if !prof.Periodic || prof.PeriodMA < 2 {
		return nil, fmt.Errorf("detect: SDS/P requires a periodic profile, %q has none", prof.App)
	}
	d := &SDSP{
		pipeline: pipe,
		cfg:      cfg,
		prof:     prof,
		wp:       cfg.WPFactor * prof.PeriodMA,
	}
	d.bufA = make([]float64, 0, d.wp)
	d.bufM = make([]float64, 0, d.wp)
	d.est = signal.NewPeriodEstimator()
	d.winScratch = make([]float64, d.wp)
	d.estOpts = periodOptions(cfg, prof.PeriodMA)
	for _, o := range opts {
		o.applySDSP(d)
	}
	return d, nil
}

// Name implements Detector.
func (d *SDSP) Name() string { return "SDS/P" }

// WP returns the period-estimation window size W_P in MA values.
func (d *SDSP) WP() int { return d.wp }

// Observe implements Detector.
func (d *SDSP) Observe(s pcm.Sample) {
	if mA, mM, ok := d.push(s); ok {
		d.ObserveMA(s.T, mA, mM)
	}
}

// ObserveMA feeds one window-level observation — the moving averages M_n of
// the two counters at virtual time t — directly into the period-estimation
// rings, bypassing the internal averagers. It is the batch-observation entry
// point of the event-driven cloud simulator. Feed a detector through either
// Observe or ObserveMA, never both.
func (d *SDSP) ObserveMA(t float64, mA, mM float64) {
	if !d.filled {
		d.bufA = append(d.bufA, mA)
		d.bufM = append(d.bufM, mM)
		if len(d.bufA) < d.wp {
			return
		}
		d.filled = true
		// First full window: estimate immediately.
		d.estimate(t)
		return
	}
	d.bufA[d.pos] = mA
	d.bufM[d.pos] = mM
	if d.pos++; d.pos == d.wp {
		d.pos = 0
	}
	d.sinceEstimate++
	if d.sinceEstimate >= d.cfg.DWP {
		d.estimate(t)
	}
}

// estimate runs DFT–ACF on both counters' current windows and updates the
// deviation count and alarm state.
func (d *SDSP) estimate(t float64) {
	d.sinceEstimate = 0
	estA, devA := d.estimateMetric(t, MetricAccess, d.bufA)
	estM, devM := d.estimateMetric(t, MetricMiss, d.bufM)

	if devA || devM {
		d.devCount++
	} else {
		d.devCount = 0
	}
	if d.rise(d.devCount >= d.cfg.HP) {
		metric, est := MetricAccess, estA
		if devM && !devA {
			metric, est = MetricMiss, estM
		}
		reason := fmt.Sprintf("%s period %d deviates >%.0f%% from normal period %d for %d consecutive estimates",
			metric, est.Period, d.cfg.PeriodTolerance*100, d.prof.PeriodMA, d.devCount)
		if est.Period == 0 {
			reason = fmt.Sprintf("%s has no detectable period (normal period %d) for %d consecutive estimates",
				metric, d.prof.PeriodMA, d.devCount)
		}
		d.alarms = append(d.alarms, Alarm{T: t, Detector: d.Name(), Metric: MetricPeriod, Reason: reason})
	}
}

// estimateMetric analyses one counter's window, fires the hook, and reports
// the estimate and whether it counts as a deviation.
func (d *SDSP) estimateMetric(t float64, metric Metric, ring []float64) (signal.PeriodEstimate, bool) {
	// Linearize the ring into the reusable scratch window (oldest first).
	window := d.winScratch
	copy(window, ring[d.pos:])
	copy(window[d.wp-d.pos:], ring[:d.pos])

	est, found := d.est.Estimate(window, d.estOpts)
	deviant := !found
	if found {
		diff := relDiff(float64(est.Period), float64(d.prof.PeriodMA))
		deviant = diff > d.cfg.PeriodTolerance
	}
	if d.estimateHook != nil {
		d.estimateHook(PeriodStat{T: t, Metric: metric, Period: est.Period, Found: found, Deviant: deviant})
	}
	return est, deviant
}

// Deviations returns the current consecutive-deviation count (diagnostics).
func (d *SDSP) Deviations() int { return d.devCount }

// relDiff returns |a−b| / max(|a|,|b|), 0 when both are zero. Inputs are
// non-negative (periods).
func relDiff(a, b float64) float64 {
	den := a
	if b > den {
		den = b
	}
	if den == 0 {
		return 0
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff / den
}
