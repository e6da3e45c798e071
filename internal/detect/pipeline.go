package detect

import (
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/timeseries"
)

// pipeline is the preprocessing chain of §4.1 that every MA-based scheme
// and the Stage-1 profiler run: a moving average with window W and step ΔW
// per counter, then an EWMA with factor α over the moving averages. It is
// embedded by value, so a push touches the embedder's own memory with no
// pointer hop or interface call.
type pipeline struct {
	maA, maM timeseries.MovingAverager
	ewA, ewM timeseries.EWMA
}

// newPipeline validates cfg and builds the chain for it; every scheme
// constructor starts here.
func newPipeline(cfg Config) (pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return pipeline{}, err
	}
	maA, err := timeseries.NewMovingAverager(cfg.W, cfg.DW)
	if err != nil {
		return pipeline{}, err
	}
	maM, err := timeseries.NewMovingAverager(cfg.W, cfg.DW)
	if err != nil {
		return pipeline{}, err
	}
	ew, err := timeseries.NewEWMA(cfg.Alpha)
	if err != nil {
		return pipeline{}, err
	}
	return pipeline{maA: *maA, maM: *maM, ewA: *ew, ewM: *ew}, nil
}

// push feeds one raw sample through the moving-average pair. ok reports a
// window boundary, where mA and mM are the new moving averages M_n; both
// averagers share their geometry, so they emit together.
func (p *pipeline) push(s pcm.Sample) (mA, mM float64, ok bool) {
	mA, ok = p.maA.Push(s.Access)
	mM, _ = p.maM.Push(s.Miss)
	return mA, mM, ok
}

// smooth feeds one window's moving averages through the EWMA pair and
// returns the smoothed values S_n.
func (p *pipeline) smooth(mA, mM float64) (eA, eM float64) {
	return p.ewA.Push(mA), p.ewM.Push(mM)
}

// alarmLog is the rising-edge bookkeeping every scheme shares: the current
// alarm state and the history of rising edges. Embedded by value, it
// promotes Alarmed, AlarmCount and Alarms to the scheme.
type alarmLog struct {
	alarmed bool
	alarms  []Alarm
}

// rise records the alarm state now and reports whether it is a rising
// edge; the caller then appends the edge's Alarm to l.alarms.
func (l *alarmLog) rise(now bool) bool {
	edge := now && !l.alarmed
	l.alarmed = now
	return edge
}

// Alarmed implements Detector.
func (l *alarmLog) Alarmed() bool { return l.alarmed }

// AlarmCount implements Detector.
func (l *alarmLog) AlarmCount() int { return len(l.alarms) }

// Alarms implements Detector. The returned slice is the caller's to keep,
// append to, or mutate: it never aliases the history, or a caller that
// retained it would see later rising edges appear in (or race with) a
// slice it believes is a point-in-time snapshot. TestAlarmsNoAliasing
// enforces this for every registered scheme.
func (l *alarmLog) Alarms() []Alarm {
	out := make([]Alarm, len(l.alarms))
	copy(out, l.alarms)
	return out
}
