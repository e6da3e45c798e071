package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
)

// TimeFrag knobs: a 60-window evaluation span — 30 s at Table 1 geometry —
// and, when Config.FragFrac is zero, a half-full density threshold, i.e. the
// same 30 suspicious windows as H_C but without the consecutiveness demand.
const (
	defaultFragWindow = 60
	defaultFragFrac   = 0.5
)

// TimeFrag is a density-based windowed PMC detector in the style of Prada,
// Restuccia and Palmieri (arXiv 1904.11268): instead of demanding H_C
// *consecutive* boundary violations the way SDS/B does, it counts how many
// of the last W_F = 60 moving-average windows were suspicious — EWMA value
// outside the profiled normal range [μ_E−kσ_E, μ_E+kσ_E] on either counter —
// and raises an alarm while that count is at or above ⌈FragFrac·W_F⌉.
//
// The point of the relaxation is time-fragmented attacks: an adversary that
// duty-cycles its bus locking to stay below H_C consecutive violations
// resets SDS/B's streak on every pause, but every active burst still lands
// suspicious windows inside TimeFrag's evaluation span, so the density
// threshold is crossed anyway. The price is a slower de-alarm (violations
// age out of the window instead of a streak resetting instantly).
type TimeFrag struct {
	cfg  Config
	prof Profile

	loA, hiA float64
	loM, hiM float64

	pipeline
	alarmLog

	ring    []bool // suspicion verdicts of the last len(ring) windows
	pos     int
	filled  int
	count   int // suspicious windows currently inside the ring
	need    int // alarm threshold ⌈FragFrac·W_F⌉
	windows int
}

var _ Detector = (*TimeFrag)(nil)
var _ WindowObserver = (*TimeFrag)(nil)

// NewTimeFrag returns a TimeFrag detector for an application with the given
// Stage-1 profile.
func NewTimeFrag(prof Profile, cfg Config) (*TimeFrag, error) {
	pipe, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	if prof.StdAccess < 0 || prof.StdMiss < 0 {
		return nil, fmt.Errorf("detect: profile for %q has negative σ", prof.App)
	}
	window := defaultFragWindow
	frac := cfg.FragFrac
	if frac == 0 {
		frac = defaultFragFrac
	}
	need := int(frac*float64(window) + 0.999999)
	if need < 1 {
		need = 1
	}
	if need > window {
		need = window
	}
	d := &TimeFrag{
		pipeline: pipe,
		cfg:      cfg,
		prof:     prof,
		ring:     make([]bool, window),
		need:     need,
	}
	if d.loA, d.hiA, err = prof.Bounds(MetricAccess, cfg.K); err != nil {
		return nil, err
	}
	if d.loM, d.hiM, err = prof.Bounds(MetricMiss, cfg.K); err != nil {
		return nil, err
	}
	return d, nil
}

// Name implements Detector.
func (d *TimeFrag) Name() string { return "TimeFrag" }

// Profile returns the profile the detector was built with.
func (d *TimeFrag) Profile() Profile { return d.prof }

// Window and Need return the resolved evaluation-window length and the
// suspicious-window count that raises the alarm (diagnostics and tests).
func (d *TimeFrag) Window() int { return len(d.ring) }
func (d *TimeFrag) Need() int   { return d.need }

// Observe implements Detector.
func (d *TimeFrag) Observe(s pcm.Sample) {
	if mA, mM, ok := d.push(s); ok {
		d.ObserveMA(s.T, mA, mM)
	}
}

// ObserveMA feeds one window-level observation — the moving averages M_n of
// the two counters at virtual time t — directly into the post-MA pipeline.
// Feed a detector through either Observe or ObserveMA, never both.
func (d *TimeFrag) ObserveMA(t float64, mA, mM float64) {
	eA, eM := d.smooth(mA, mM)
	d.windows++

	suspicious := eA < d.loA || eA > d.hiA || eM < d.loM || eM > d.hiM
	if d.filled == len(d.ring) {
		// Ring full: the verdict aging out leaves the count first.
		if d.ring[d.pos] {
			d.count--
		}
	} else {
		d.filled++
	}
	d.ring[d.pos] = suspicious
	if suspicious {
		d.count++
	}
	if d.pos++; d.pos == len(d.ring) {
		d.pos = 0
	}

	if d.rise(d.count >= d.need) {
		metric := MetricAccess
		if eM < d.loM || eM > d.hiM {
			metric = MetricMiss
		}
		d.alarms = append(d.alarms, Alarm{
			T:        t,
			Detector: d.Name(),
			Metric:   metric,
			Reason: fmt.Sprintf("%d of last %d MA windows suspicious (threshold %d): fragmented out-of-range activity",
				d.count, len(d.ring), d.need),
		})
	}
}

// Suspicious returns the number of suspicious windows currently inside the
// evaluation span (diagnostics and tests).
func (d *TimeFrag) Suspicious() int { return d.count }
