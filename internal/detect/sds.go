package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
)

// SDS is the combined Statistical-based Detection System of §5.1: for
// non-periodic applications it is SDS/B alone; for periodic applications it
// requires both SDS/B and SDS/P to agree before raising an alarm, which
// eliminates most residual false positives of either scheme (the paper
// measures a 3–6% specificity improvement from the conjunction).
type SDS struct {
	b *SDSB
	p *SDSP // nil for non-periodic applications

	alarmLog
}

var _ Detector = (*SDS)(nil)

// NewSDS assembles the combined detector from a Stage-1 profile: SDS/P is
// attached automatically when the profile is periodic.
func NewSDS(prof Profile, cfg Config) (*SDS, error) {
	b, err := NewSDSB(prof, cfg)
	if err != nil {
		return nil, fmt.Errorf("detect: SDS: %w", err)
	}
	d := &SDS{b: b}
	if prof.Periodic {
		// NewSDSB validated cfg; SDS feeds SDS/P through ObserveMA only.
		p, err := newSDSP(pipeline{}, prof, cfg)
		if err != nil {
			return nil, fmt.Errorf("detect: SDS: %w", err)
		}
		d.p = p
	}
	return d, nil
}

// Name implements Detector.
func (d *SDS) Name() string { return "SDS" }

// Boundary returns the embedded SDS/B detector.
func (d *SDS) Boundary() *SDSB { return d.b }

// Periodic returns the embedded SDS/P detector, or nil for non-periodic
// applications. SDS feeds it through ObserveMA; it has no averagers of its
// own, so its Observe must not be called.
func (d *SDS) Periodic() *SDSP { return d.p }

// Observe implements Detector. SDS/B and SDS/P share the (W, ΔW)
// geometry, so raw samples run once through SDS/B's moving-average pair
// (SDS never calls the sub-detectors' raw Observe) and window boundaries
// fan out to both sub-detectors' ObserveMA: two ring pushes per sample
// instead of four on the ingest plane's hottest path. The sub-detectors
// only change alarm state at window boundaries, so skipping update between
// emissions is observationally identical to updating per sample.
func (d *SDS) Observe(s pcm.Sample) {
	if mA, mM, ok := d.b.push(s); ok {
		d.ObserveMA(s.T, mA, mM)
	}
}

// ObserveMA feeds one window-level observation into both sub-detectors'
// post-MA pipelines — the batch-observation entry point of the event-driven
// cloud simulator. Feed a detector through either Observe or ObserveMA,
// never both.
func (d *SDS) ObserveMA(t float64, mA, mM float64) {
	d.b.ObserveMA(t, mA, mM)
	if d.p != nil {
		d.p.ObserveMA(t, mA, mM)
	}
	d.update(t)
}

// update re-evaluates the conjunction alarm state at virtual time t.
func (d *SDS) update(t float64) {
	nowAlarmed := d.b.Alarmed()
	if d.p != nil {
		nowAlarmed = nowAlarmed && d.p.Alarmed()
	}
	if d.rise(nowAlarmed) {
		metric := MetricAccess
		reason := "SDS/B boundary violation"
		if n := len(d.b.alarms); n > 0 {
			metric = d.b.alarms[n-1].Metric
			reason = d.b.alarms[n-1].Reason
		}
		if d.p != nil {
			reason += "; confirmed by SDS/P period deviation"
		}
		d.alarms = append(d.alarms, Alarm{T: t, Detector: d.Name(), Metric: metric, Reason: reason})
	}
}
