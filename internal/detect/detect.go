// Package detect implements the paper's contribution: two lightweight
// statistical schemes for real-time detection of memory DoS attacks from
// PCM counter samples, plus the prior-work baseline they are evaluated
// against.
//
//   - SDSB (paper §4.2.1) profiles the mean μ_E and standard deviation σ_E
//     of the EWMA-smoothed counter series and raises an alarm after H_C
//     consecutive samples outside [μ_E−kσ_E, μ_E+kσ_E]; Chebyshev's
//     inequality bounds the false-alarm probability for any counter
//     distribution.
//   - SDSP (paper §4.2.2) tracks the period of the moving-average series of
//     a periodic application with a DFT+ACF estimator and raises an alarm
//     after H_P consecutive >20% period deviations.
//   - SDS combines them: SDS/B alone for non-periodic applications, the
//     conjunction of SDS/B and SDS/P for periodic ones (§5.1).
//   - KSTest is the baseline of Zhang et al. (AsiaCCS '17): it throttles
//     co-located VMs to collect attack-free reference samples and compares
//     them with monitored samples using the two-sample Kolmogorov–Smirnov
//     test.
package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
)

// Metric identifies which PCM counter a detection event concerns.
type Metric int

// The two counters of the paper: AccessNum reacts to bus locking, MissNum
// to LLC cleansing.
const (
	MetricAccess Metric = iota + 1
	MetricMiss
	MetricPeriod // SDS/P's derived period signal
)

// String returns the counter name used in the paper.
func (m Metric) String() string {
	switch m {
	case MetricAccess:
		return "AccessNum"
	case MetricMiss:
		return "MissNum"
	case MetricPeriod:
		return "Period"
	default:
		return fmt.Sprintf("detect.Metric(%d)", int(m))
	}
}

// Alarm records one rising edge of a detector's alarm state.
type Alarm struct {
	// T is the virtual time at which the alarm fired, seconds.
	T float64
	// Detector is the detector name ("SDS/B", "SDS/P", "SDS", "KStest").
	Detector string
	// Metric is the counter that triggered the alarm.
	Metric Metric
	// Reason is a human-readable explanation.
	Reason string
}

// Detector is the streaming interface every scheme implements: feed it PCM
// samples in time order and inspect its alarm state. Together with
// Collecting it is the whole contract a plane needs to drive a detector,
// quiesce co-located VMs around it and count its alarms.
type Detector interface {
	// Name returns the scheme name used in reports.
	Name() string
	// Observe processes the next PCM sample.
	Observe(s pcm.Sample)
	// Alarmed reports whether the detector currently believes an attack is
	// in progress.
	Alarmed() bool
	// Alarms returns every alarm raised so far (rising edges only).
	Alarms() []Alarm
	// AlarmCount returns len(Alarms()) without copying the alarms.
	// Per-sample consumers (the server's session loop, cloudsim) poll it
	// and call Alarms only when it moved, keeping the steady-state Observe
	// path allocation-free.
	AlarmCount() int
}

// Collecting reports whether d is a KStest detector that is collecting
// reference samples, the one state in which every VM co-located with the
// protected one must be throttled (paper §3.2). It is false for nil and
// for every other scheme. Planes read it between samples: it flips only
// inside Observe.
func Collecting(d Detector) bool {
	k, ok := d.(*KSTest)
	return ok && k.collecting
}

// WindowObserver is the window-level batch-observation contract next to
// Detector.Observe: implementations accept the moving averages M_n of the
// two counters directly, bypassing their internal averagers. The
// event-driven cloud simulator generates telemetry in closed-form ΔW-sample
// blocks and feeds detectors through this interface; SDS, SDS/B and SDS/P
// implement it (KStest does not — it consumes raw samples and is only
// available at exact fidelity). A detector must be fed through either
// Observe or ObserveMA for its whole lifetime, never a mix.
type WindowObserver interface {
	ObserveMA(t float64, maAccess, maMiss float64)
}

// Config carries the SDS parameters of the paper's Table 1. The zero value
// is invalid; start from DefaultConfig.
type Config struct {
	// TPCM is the PCM sampling interval in seconds (Table 1: 0.01).
	TPCM float64
	// W is the moving-average window size in raw samples (Table 1: 200).
	W int
	// DW is the moving-average sliding step ΔW in raw samples (Table 1: 50).
	DW int
	// Alpha is the EWMA smoothing factor (Table 1: 0.2).
	Alpha float64
	// K is the boundary factor k of the normal range μ±kσ (Table 1: 1.125).
	K float64
	// HC is the consecutive-violation threshold H_C (Table 1: 30).
	HC int
	// WPFactor sets the SDS/P window W_P as a multiple of the profiled
	// period p (Table 1: W_P = 2·p).
	WPFactor int
	// DWP is the SDS/P sliding step ΔW_P in MA values (Table 1: 10).
	DWP int
	// HP is the consecutive-period-change threshold H_P (Table 1: 5).
	HP int
	// PeriodTolerance is the fractional period deviation that counts as a
	// change (paper: 20%).
	PeriodTolerance float64

	// The detector-zoo knobs below parameterize the non-paper schemes
	// (CUSUM, TimeFrag, EWMAVar). Zero selects the scheme's default, so
	// configs written before the zoo existed keep validating and behaving
	// identically.

	// CusumK is the CUSUM slack (reference drift) in profiled σ_E units:
	// per-window deviations within K·σ_E are absorbed before the
	// change-point statistic accumulates. Zero selects the boundary factor
	// K, tying the slack to the same Chebyshev-calibrated normal range
	// SDS/B uses.
	CusumK float64
	// CusumH is the CUSUM decision interval in σ_E units; the alarm raises
	// when either one-sided statistic reaches it. Zero selects 8.
	CusumH float64
	// FragFrac is the fraction of suspicious windows within TimeFrag's
	// 60-window evaluation span that raises its alarm. Zero selects 0.5 —
	// the same 30 suspicious windows as H_C, but without the
	// consecutiveness demand.
	FragFrac float64
	// VarCalib is EWMAVar's self-calibration length in MA windows (the
	// leading monitored windows it learns its own variance baseline from).
	// Zero selects 100.
	VarCalib int
}

// DefaultConfig returns the paper's Table 1 parameters.
func DefaultConfig() Config {
	return Config{
		TPCM:            0.01,
		W:               200,
		DW:              50,
		Alpha:           0.2,
		K:               1.125,
		HC:              30,
		WPFactor:        2,
		DWP:             10,
		HP:              5,
		PeriodTolerance: 0.2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TPCM <= 0:
		return fmt.Errorf("detect: T_PCM must be positive, got %v", c.TPCM)
	case c.W <= 0 || c.DW <= 0 || c.DW > c.W:
		return fmt.Errorf("detect: invalid MA geometry W=%d ΔW=%d", c.W, c.DW)
	case !(c.Alpha > 0 && c.Alpha <= 1):
		return fmt.Errorf("detect: EWMA α must be in (0,1], got %v", c.Alpha)
	case c.K <= 1:
		return fmt.Errorf("detect: boundary factor k must exceed 1 (Chebyshev), got %v", c.K)
	case c.HC <= 0:
		return fmt.Errorf("detect: H_C must be positive, got %d", c.HC)
	case c.WPFactor < 2:
		return fmt.Errorf("detect: W_P factor must be ≥ 2 (need two periods to estimate one), got %d", c.WPFactor)
	case c.DWP <= 0:
		return fmt.Errorf("detect: ΔW_P must be positive, got %d", c.DWP)
	case c.HP <= 0:
		return fmt.Errorf("detect: H_P must be positive, got %d", c.HP)
	case c.PeriodTolerance <= 0 || c.PeriodTolerance >= 1:
		return fmt.Errorf("detect: period tolerance must be in (0,1), got %v", c.PeriodTolerance)
	case c.CusumK < 0 || c.CusumH < 0:
		return fmt.Errorf("detect: CUSUM slack/interval must be ≥ 0 (0 = default), got k=%v H=%v", c.CusumK, c.CusumH)
	case c.FragFrac < 0 || c.FragFrac > 1:
		return fmt.Errorf("detect: TimeFrag fraction must be in [0,1] (0 = default), got %v", c.FragFrac)
	case c.VarCalib < 0:
		return fmt.Errorf("detect: EWMAVar calibration length must be ≥ 0 (0 = default), got %d", c.VarCalib)
	}
	return nil
}

// WindowStat is one preprocessed observation emitted by the SDS pipeline
// at each moving-average window boundary, exposed to hooks for tracing and
// figure generation.
type WindowStat struct {
	// Index is the window number n.
	Index int
	// T is the virtual time of the window's last raw sample.
	T float64
	// MAAccess and MAMiss are the moving averages M_n (Eq. 1).
	MAAccess, MAMiss float64
	// EWMAAccess and EWMAMiss are the smoothed values S_n (Eq. 2).
	EWMAAccess, EWMAMiss float64
}
