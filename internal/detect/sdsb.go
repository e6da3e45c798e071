package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
)

// SDSB is the Boundary-based Statistical Detection Scheme (paper §4.2.1).
// It preprocesses each counter with a sliding-window moving average and an
// EWMA, and flags an attack when the smoothed value leaves the profiled
// normal range [μ_E−kσ_E, μ_E+kσ_E] for H_C consecutive windows — a drop in
// AccessNum signals bus locking, a rise in MissNum signals LLC cleansing.
type SDSB struct {
	cfg  Config
	prof Profile

	loA, hiA float64
	loM, hiM float64

	pipeline
	alarmLog

	windows    int
	violA      int
	violM      int
	windowHook func(WindowStat)
}

var _ Detector = (*SDSB)(nil)

// SDSBOption customizes an SDSB detector.
type SDSBOption interface{ applySDSB(*SDSB) }

type sdsbWindowHook func(WindowStat)

func (h sdsbWindowHook) applySDSB(d *SDSB) { d.windowHook = h }

// WithSDSBWindowHook registers a callback invoked at every MA window
// boundary with the preprocessed values — used to trace the EWMA series of
// the paper's Fig. 7.
func WithSDSBWindowHook(hook func(WindowStat)) SDSBOption {
	return sdsbWindowHook(hook)
}

// NewSDSB returns an SDS/B detector for an application with the given
// Stage-1 profile.
func NewSDSB(prof Profile, cfg Config, opts ...SDSBOption) (*SDSB, error) {
	pipe, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	if prof.StdAccess < 0 || prof.StdMiss < 0 {
		return nil, fmt.Errorf("detect: profile for %q has negative σ", prof.App)
	}
	d := &SDSB{pipeline: pipe, cfg: cfg, prof: prof}
	if d.loA, d.hiA, err = prof.Bounds(MetricAccess, cfg.K); err != nil {
		return nil, err
	}
	if d.loM, d.hiM, err = prof.Bounds(MetricMiss, cfg.K); err != nil {
		return nil, err
	}
	for _, o := range opts {
		o.applySDSB(d)
	}
	return d, nil
}

// Name implements Detector.
func (d *SDSB) Name() string { return "SDS/B" }

// Profile returns the profile the detector was built with.
func (d *SDSB) Profile() Profile { return d.prof }

// Observe implements Detector.
func (d *SDSB) Observe(s pcm.Sample) {
	if mA, mM, ok := d.push(s); ok {
		d.ObserveMA(s.T, mA, mM)
	}
}

// ObserveMA feeds one window-level observation — the moving averages M_n of
// the two counters at virtual time t — directly into the post-MA pipeline
// (EWMA, boundary check, violation streak). It is the batch-observation
// entry point of the event-driven cloud simulator, which generates telemetry
// in closed-form ΔW-sample blocks instead of raw samples. Feed a detector
// through either Observe or ObserveMA, never both.
func (d *SDSB) ObserveMA(t float64, mA, mM float64) {
	eA, eM := d.smooth(mA, mM)
	d.windows++

	if d.windowHook != nil {
		d.windowHook(WindowStat{
			Index:      d.windows - 1,
			T:          t,
			MAAccess:   mA,
			MAMiss:     mM,
			EWMAAccess: eA,
			EWMAMiss:   eM,
		})
	}

	// Condition C_n (Eq. 3), tracked per counter.
	d.violA = nextViolationCount(d.violA, eA < d.loA || eA > d.hiA)
	d.violM = nextViolationCount(d.violM, eM < d.loM || eM > d.hiM)

	if d.rise(d.violA >= d.cfg.HC || d.violM >= d.cfg.HC) {
		metric, reason := MetricAccess, violationReason("AccessNum", eA, d.loA, d.hiA)
		if d.violM >= d.cfg.HC {
			metric, reason = MetricMiss, violationReason("MissNum", eM, d.loM, d.hiM)
		}
		d.alarms = append(d.alarms, Alarm{
			T:        t,
			Detector: d.Name(),
			Metric:   metric,
			Reason:   reason,
		})
	}
}

// Violations returns the current consecutive-violation counts for the two
// counters (diagnostics and tests).
func (d *SDSB) Violations() (access, miss int) { return d.violA, d.violM }

func nextViolationCount(count int, violated bool) int {
	if !violated {
		return 0
	}
	return count + 1
}

func violationReason(counter string, v, lo, hi float64) string {
	if v < lo {
		return fmt.Sprintf("%s EWMA %.4g below normal range [%.4g, %.4g]", counter, v, lo, hi)
	}
	return fmt.Sprintf("%s EWMA %.4g above normal range [%.4g, %.4g]", counter, v, lo, hi)
}
