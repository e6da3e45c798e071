package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
)

// CUSUM default knobs (Config.CusumK/CusumH zero values resolve to these;
// CusumK additionally falls back to the boundary factor K when both are
// zero, so the slack absorbs exactly the normal range SDS/B tolerates).
const (
	defaultCusumH = 8.0
	// cusumCapMult caps each one-sided statistic at this multiple of the
	// decision interval. Without the cap a long attack drives the statistic
	// arbitrarily high and the detector takes (statistic−H)/slack windows to
	// re-arm after the attack ends — hours of latched alarm for a
	// minutes-long attack. Capping bounds the de-alarm lag to
	// (capMult−1)·H/slack windows, preserving rising-edge semantics for the
	// next attack.
	cusumCapMult = 4.0
)

// CUSUM is a two-sided cumulative-sum change-point detector over the same
// MA→EWMA preprocessed counter series SDS/B monitors — the detection style
// CacheShield (Briongos et al., arXiv 1709.01795) applies to hardware
// performance counters, transplanted onto the paper's two-counter PCM
// telemetry and Stage-1 profile. Per counter, the standardized deviation
// z_n = (S_n − μ_E)/σ_E feeds two one-sided statistics
//
//	C⁺_n = max(0, C⁺_{n−1} + z_n − k)    (level rise: LLC cleansing)
//	C⁻_n = max(0, C⁻_{n−1} − z_n − k)    (level drop: bus locking)
//
// with slack k (Config.CusumK, in σ_E units) absorbing in-profile drift; an
// alarm raises while any statistic is at or above the decision interval H
// (Config.CusumH). Unlike SDS/B's consecutive-violation streak, CUSUM
// integrates small persistent shifts, so a sub-kσ drift still accumulates —
// the classic change-point trade: faster on sustained shifts, and the
// slack/interval pair (not a streak length) sets the ARL.
type CUSUM struct {
	cfg  Config
	prof Profile

	slack, h, bound float64

	muA, invSdA float64
	muM, invSdM float64

	pipeline
	alarmLog

	posA, negA float64
	posM, negM float64

	windows int
}

var _ Detector = (*CUSUM)(nil)
var _ WindowObserver = (*CUSUM)(nil)

// NewCUSUM returns a CUSUM detector for an application with the given
// Stage-1 profile.
func NewCUSUM(prof Profile, cfg Config) (*CUSUM, error) {
	pipe, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	if prof.StdAccess < 0 || prof.StdMiss < 0 {
		return nil, fmt.Errorf("detect: profile for %q has negative σ", prof.App)
	}
	d := &CUSUM{
		pipeline: pipe,
		cfg:      cfg,
		prof:     prof,
		slack:    cfg.CusumK,
		h:        cfg.CusumH,
		muA:      prof.MeanAccess,
		muM:      prof.MeanMiss,
	}
	if d.slack == 0 {
		d.slack = cfg.K
	}
	if d.h == 0 {
		d.h = defaultCusumH
	}
	d.bound = cusumCapMult * d.h
	d.invSdA = invStd(prof.StdAccess)
	d.invSdM = invStd(prof.StdMiss)
	return d, nil
}

// invStd guards the standardization against a degenerate profile: a zero-σ
// profile means any deviation is infinitely surprising, so a tiny synthetic
// σ keeps z finite while still accumulating fast.
func invStd(sd float64) float64 {
	if sd <= 0 {
		return 1e12
	}
	return 1 / sd
}

// Name implements Detector.
func (d *CUSUM) Name() string { return "CUSUM" }

// Profile returns the profile the detector was built with.
func (d *CUSUM) Profile() Profile { return d.prof }

// Slack and Interval return the resolved slack k and decision interval H in
// σ_E units (diagnostics and tests).
func (d *CUSUM) Slack() float64    { return d.slack }
func (d *CUSUM) Interval() float64 { return d.h }

// Observe implements Detector.
func (d *CUSUM) Observe(s pcm.Sample) {
	if mA, mM, ok := d.push(s); ok {
		d.ObserveMA(s.T, mA, mM)
	}
}

// ObserveMA feeds one window-level observation — the moving averages M_n of
// the two counters at virtual time t — directly into the post-MA pipeline.
// Feed a detector through either Observe or ObserveMA, never both.
func (d *CUSUM) ObserveMA(t float64, mA, mM float64) {
	eA, eM := d.smooth(mA, mM)
	zA := (eA - d.muA) * d.invSdA
	zM := (eM - d.muM) * d.invSdM
	d.windows++

	d.posA = cusumStep(d.posA, zA-d.slack, d.bound)
	d.negA = cusumStep(d.negA, -zA-d.slack, d.bound)
	d.posM = cusumStep(d.posM, zM-d.slack, d.bound)
	d.negM = cusumStep(d.negM, -zM-d.slack, d.bound)

	if d.rise(d.posA >= d.h || d.negA >= d.h || d.posM >= d.h || d.negM >= d.h) {
		metric, stat, dir := MetricAccess, d.negA, "drop"
		switch {
		case d.posM >= d.h || d.negM >= d.h:
			metric, stat, dir = MetricMiss, d.posM, "rise"
			if d.negM > d.posM {
				stat, dir = d.negM, "drop"
			}
		case d.posA > d.negA:
			stat, dir = d.posA, "rise"
		}
		d.alarms = append(d.alarms, Alarm{
			T:        t,
			Detector: d.Name(),
			Metric:   metric,
			Reason: fmt.Sprintf("%s CUSUM %s statistic %.2f ≥ decision interval %.2f (slack %.3gσ)",
				metric, dir, stat, d.h, d.slack),
		})
	}
}

// cusumStep advances one one-sided statistic: accumulate the slack-adjusted
// deviation, floor at zero, cap at the re-arm bound.
func cusumStep(c, dz, bound float64) float64 {
	c += dz
	if c < 0 {
		return 0
	}
	if c > bound {
		return bound
	}
	return c
}

// Statistics returns the four one-sided statistics (AccessNum rise/drop,
// MissNum rise/drop) for diagnostics and tests.
func (d *CUSUM) Statistics() (posA, negA, posM, negM float64) {
	return d.posA, d.negA, d.posM, d.negM
}
