package detect

import (
	"fmt"
	"math"

	"github.com/memdos/sds/internal/pcm"
)

// EWMAVar knobs: a slow variance smoother β = 0.05, a 100-window
// self-calibration phase — 50 s at Table 1 geometry — when Config.VarCalib
// is zero, and a consecutive-violation streak of H_V = 10 windows.
const (
	defaultVarBeta  = 0.05
	defaultVarCalib = 100
	defaultVarH     = 10

	// varBandMult is a fixed dispersion-headroom factor applied on top of
	// the swept boundary factor k: the violation band is μ_v ± k·varBandMult·σ_v.
	// Two structural properties of v demand it. First, v is itself an
	// exponentially smoothed second moment, so consecutive v values are
	// correlated over ~1/β windows — an H_V-long violation streak is not
	// the (1/k²)^H_V rare event it would be for independent values, and
	// the streak filter alone cannot carry the false-alarm budget the way
	// H_C does for SDS/B. Second, squared deviations are heavier-tailed
	// than the deviations themselves. The headroom restores a workable
	// operating range at the paper's k values; the ROC sweep still moves
	// the whole band through k.
	varBandMult = 3.0

	// varBurnInFactor · (1/β) windows are discarded before calibration
	// starts: v relaxes from 0 toward its stationary level with time
	// constant 1/β, and calibrating on the ramp biases μ_v low (the
	// stationary signal then sits permanently above the band).
	varBurnInFactor = 3
)

// EWMAVar is a cheap EWMA-of-variance baseline: alongside the usual EWMA
// mean S_n of each counter's moving-average series, it tracks an
// exponentially weighted variance
//
//	v_n = (1−β)·v_{n−1} + β·(M_n − S_{n−1})²
//
// (the EWMS/EWMV estimator of Finch 2009), self-calibrates the normal range
// of v over the first VarCalib windows of live traffic, and alarms after
// H_V consecutive windows in which either counter's v falls outside
// μ_v ± k·σ_v, with the same boundary factor k the SDS schemes use.
//
// The signal is deliberately orthogonal to SDS/B's: a level detector watches
// where the counters sit, a variance detector watches how much they churn.
// Attacks that shift dispersion more than level (ramping bus locks, noisy
// cleansing) move v first; conversely a clean level shift with unchanged
// spread is EWMAVar's blind spot — which is exactly why it is fielded as a
// baseline for the ROC tournament rather than a replacement.
type EWMAVar struct {
	cfg  Config
	prof Profile

	k      float64
	beta   float64
	calibN int
	varH   int

	pipeline
	alarmLog

	prevA, prevM float64 // S_{n−1}, the smoothed means before this window
	vA, vM       float64
	started      bool // first window seen (seeds prevA/prevM)

	// Welford accumulators over v during the calibration phase, then the
	// calibrated normal ranges.
	burnLeft               int
	calibSeen              int
	meanVA, m2VA           float64
	meanVM, m2VM           float64
	calibrated             bool
	loVA, hiVA, loVM, hiVM float64

	consec     int
	windows    int // detection-phase windows observed
	violations int // detection-phase windows with v outside the normal range
}

var _ Detector = (*EWMAVar)(nil)
var _ WindowObserver = (*EWMAVar)(nil)

// NewEWMAVar returns an EWMAVar detector. The Stage-1 profile is carried for
// provenance only: unlike the SDS schemes, EWMAVar self-calibrates its
// variance baseline from the first VarCalib windows of live traffic, so it
// needs no offline variance profile.
func NewEWMAVar(prof Profile, cfg Config) (*EWMAVar, error) {
	pipe, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	d := &EWMAVar{
		pipeline: pipe,
		cfg:      cfg,
		prof:     prof,
		k:        cfg.K,
		beta:     defaultVarBeta,
		calibN:   cfg.VarCalib,
		varH:     defaultVarH,
	}
	if d.calibN == 0 {
		d.calibN = defaultVarCalib
	}
	d.burnLeft = int(varBurnInFactor / d.beta)
	return d, nil
}

// Name implements Detector.
func (d *EWMAVar) Name() string { return "EWMAVar" }

// Profile returns the profile the detector was built with.
func (d *EWMAVar) Profile() Profile { return d.prof }

// Calibrated reports whether the variance baseline has been learned (the
// detector cannot alarm before then).
func (d *EWMAVar) Calibrated() bool { return d.calibrated }

// Observe implements Detector.
func (d *EWMAVar) Observe(s pcm.Sample) {
	if mA, mM, ok := d.push(s); ok {
		d.ObserveMA(s.T, mA, mM)
	}
}

// ObserveMA feeds one window-level observation — the moving averages M_n of
// the two counters at virtual time t — directly into the post-MA pipeline.
// Feed a detector through either Observe or ObserveMA, never both.
func (d *EWMAVar) ObserveMA(t float64, mA, mM float64) {
	if !d.started {
		// First window seeds the smoothed means; no deviation to square yet.
		d.started = true
		d.prevA, d.prevM = d.smooth(mA, mM)
		return
	}
	devA := mA - d.prevA
	devM := mM - d.prevM
	d.vA = (1-d.beta)*d.vA + d.beta*devA*devA
	d.vM = (1-d.beta)*d.vM + d.beta*devM*devM
	d.prevA, d.prevM = d.smooth(mA, mM)

	if !d.calibrated {
		if d.burnLeft > 0 {
			d.burnLeft--
			return
		}
		d.calibSeen++
		d.meanVA, d.m2VA = welfordStep(d.meanVA, d.m2VA, d.vA, d.calibSeen)
		d.meanVM, d.m2VM = welfordStep(d.meanVM, d.m2VM, d.vM, d.calibSeen)
		if d.calibSeen >= d.calibN {
			d.finishCalibration()
		}
		return
	}

	d.windows++
	violated := d.vA < d.loVA || d.vA > d.hiVA || d.vM < d.loVM || d.vM > d.hiVM
	if violated {
		d.violations++
		d.consec++
	} else {
		d.consec = 0
	}
	if d.rise(d.consec >= d.varH) {
		metric, v, lo, hi := MetricAccess, d.vA, d.loVA, d.hiVA
		if d.vM < d.loVM || d.vM > d.hiVM {
			metric, v, lo, hi = MetricMiss, d.vM, d.loVM, d.hiVM
		}
		d.alarms = append(d.alarms, Alarm{
			T:        t,
			Detector: d.Name(),
			Metric:   metric,
			Reason: fmt.Sprintf("%s EWMA variance %.4g outside normal range [%.4g, %.4g] for %d consecutive windows",
				metric, v, lo, hi, d.consec),
		})
	}
}

// welfordStep advances one running mean/M2 pair with the n-th value.
func welfordStep(mean, m2, x float64, n int) (float64, float64) {
	delta := x - mean
	mean += delta / float64(n)
	m2 += delta * (x - mean)
	return mean, m2
}

// finishCalibration turns the Welford accumulators into μ_v ± kσ_v normal
// ranges. A relative σ floor keeps a near-constant calibration stream (σ≈0)
// from declaring every subsequent jitter a violation.
func (d *EWMAVar) finishCalibration() {
	d.calibrated = true
	d.loVA, d.hiVA = varBounds(d.meanVA, d.m2VA, d.calibSeen, d.k*varBandMult)
	d.loVM, d.hiVM = varBounds(d.meanVM, d.m2VM, d.calibSeen, d.k*varBandMult)
}

func varBounds(mean, m2 float64, n int, k float64) (lo, hi float64) {
	sd := 0.0
	if n > 1 {
		sd = math.Sqrt(m2 / float64(n-1))
	}
	if floor := 1e-3 * mean; sd < floor {
		sd = floor
	}
	lo = mean - k*sd
	if lo < 0 {
		lo = 0 // v is a squared quantity; a negative bound is vacuous
	}
	hi = mean + k*sd
	return lo, hi
}

// VarianceBounds returns the calibrated normal range of each counter's EWMA
// variance; ok is false before calibration completes.
func (d *EWMAVar) VarianceBounds() (loA, hiA, loM, hiM float64, ok bool) {
	return d.loVA, d.hiVA, d.loVM, d.hiVM, d.calibrated
}

// ViolationStats returns how many detection-phase windows have been observed
// and how many of them violated the calibrated range — the per-window
// false-alarm ratio the Chebyshev property test checks against 1/k².
func (d *EWMAVar) ViolationStats() (windows, violations int) {
	return d.windows, d.violations
}
