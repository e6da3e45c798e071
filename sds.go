package sds

import (
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
)

// Core detection types, re-exported from the implementation packages so
// that downstream users never import internal paths.
type (
	// Sample is one PCM observation of the protected VM: AccessNum and
	// MissNum for the preceding T_PCM interval.
	Sample = pcm.Sample
	// Detector is the streaming interface implemented by every scheme.
	Detector = detect.Detector
	// Alarm records one rising edge of a detector's alarm state.
	Alarm = detect.Alarm
	// Metric identifies the counter a detection event concerns.
	Metric = detect.Metric
	// Config carries the SDS parameters of the paper's Table 1.
	Config = detect.Config
	// KSTestConfig carries the baseline detector's parameters.
	KSTestConfig = detect.KSTestConfig
	// Profile is the Stage-1 normal-behaviour profile of an application.
	Profile = detect.Profile
	// WindowStat is a preprocessed observation exposed to SDS/B hooks.
	WindowStat = detect.WindowStat
	// PeriodStat is one SDS/P period estimate exposed to hooks.
	PeriodStat = detect.PeriodStat
	// CheckStat is one KStest comparison outcome exposed to hooks.
	CheckStat = detect.CheckStat

	// SDSB is the boundary-based detection scheme (paper §4.2.1).
	SDSB = detect.SDSB
	// SDSP is the period-based detection scheme (paper §4.2.2).
	SDSP = detect.SDSP
	// SDS is the combined detection system (paper §5.1).
	SDS = detect.SDS
	// KSTest is the Kolmogorov–Smirnov baseline (Zhang et al.).
	KSTest = detect.KSTest

	// Reprofiler wraps SDS with the paper's §6 re-profiling workflow for
	// applications whose behaviour legitimately changes over time.
	Reprofiler = detect.Reprofiler
	// Sanitizer guards a detector against malformed PCM input.
	Sanitizer = detect.Sanitizer

	// SDSBOption customizes NewSDSB.
	SDSBOption = detect.SDSBOption
	// SDSPOption customizes NewSDSP.
	SDSPOption = detect.SDSPOption
	// KSTestOption customizes NewKSTest.
	KSTestOption = detect.KSTestOption
)

// Counter identifiers.
const (
	MetricAccess = detect.MetricAccess
	MetricMiss   = detect.MetricMiss
	MetricPeriod = detect.MetricPeriod
)

// DefaultConfig returns the paper's Table 1 parameters.
func DefaultConfig() Config { return detect.DefaultConfig() }

// SampleCount returns the number of whole T_PCM intervals in seconds of
// telemetry, rounding up quotients that sit a float representation error
// below an integer so exact multiples never lose their final sample.
func SampleCount(seconds, tpcm float64) int { return pcm.SampleCount(seconds, tpcm) }

// DefaultKSTestConfig returns the baseline parameters the paper reuses from
// Zhang et al.
func DefaultKSTestConfig() KSTestConfig { return detect.DefaultKSTestConfig() }

// BuildProfile computes a Stage-1 Profile from attack-free PCM samples.
func BuildProfile(app string, samples []Sample, cfg Config) (Profile, error) {
	return detect.BuildProfile(app, samples, cfg)
}

// NewSDS returns the combined detection system for a profiled application.
func NewSDS(prof Profile, cfg Config) (*SDS, error) {
	return detect.NewSDS(prof, cfg)
}

// NewSDSB returns the boundary-based scheme for a profiled application.
func NewSDSB(prof Profile, cfg Config, opts ...SDSBOption) (*SDSB, error) {
	return detect.NewSDSB(prof, cfg, opts...)
}

// NewSDSP returns the period-based scheme; the profile must be periodic.
func NewSDSP(prof Profile, cfg Config, opts ...SDSPOption) (*SDSP, error) {
	return detect.NewSDSP(prof, cfg, opts...)
}

// NewKSTest returns the baseline detector; nil options are skipped. The
// detector throttles nothing itself: Simulate quiesces the attacker while
// its Collecting method reports a reference collection, and a caller that
// runs its own loop reads Collecting between samples to do the same.
func NewKSTest(cfg KSTestConfig, opts ...KSTestOption) (*KSTest, error) {
	return detect.NewKSTest(cfg, opts...)
}

// WithSDSBWindowHook traces the preprocessed EWMA series (paper Fig. 7).
func WithSDSBWindowHook(hook func(WindowStat)) SDSBOption {
	return detect.WithSDSBWindowHook(hook)
}

// WithSDSPEstimateHook traces the computed-period sequence (paper Fig. 8b).
func WithSDSPEstimateHook(hook func(PeriodStat)) SDSPOption {
	return detect.WithSDSPEstimateHook(hook)
}

// WithKSTestCheckHook traces the per-check KS decisions (paper Fig. 1).
func WithKSTestCheckHook(hook func(CheckStat)) KSTestOption {
	return detect.WithKSTestCheckHook(hook)
}

// NewReprofiler wraps a combined SDS detector with a rolling sample buffer
// from which the profile can be rebuilt on demand (§6: dynamic
// applications / tenant-requested re-profiling).
func NewReprofiler(app string, initial Profile, cfg Config, bufferSeconds float64) (*Reprofiler, error) {
	return detect.NewReprofiler(app, initial, cfg, bufferSeconds)
}

// NewSanitizer wraps a detector with input validation: NaN, negative or
// impossibly large counters and out-of-order timestamps are dropped, never
// forwarded.
func NewSanitizer(inner Detector) *Sanitizer { return detect.NewSanitizer(inner) }

// ChebyshevHC returns the smallest H_C meeting the confidence level for the
// boundary factor k (paper Eq. 4); k=1.125 at 99.9% gives the paper's 30.
func ChebyshevHC(k, confidence float64) (int, error) {
	return detect.ChebyshevHC(k, confidence)
}

// ChebyshevFalseAlarmBound returns the Chebyshev bound (1/k²)^H_C on the
// false-alarm probability of an (k, H_C) pair.
func ChebyshevFalseAlarmBound(k float64, hc int) (float64, error) {
	return detect.ChebyshevFalseAlarmBound(k, hc)
}
