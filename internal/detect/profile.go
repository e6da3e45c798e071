package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/signal"
	"github.com/memdos/sds/internal/timeseries"
)

// Profile is the Stage-1 output of SDS: the normal-behaviour statistics of
// one application, collected while the VM is known to be attack-free
// (immediately after it is started or migrated, §4.2.1). SDS/B uses the
// EWMA mean/σ per counter; SDS/P uses the MA-series period.
type Profile struct {
	// App names the profiled application.
	App string
	// Windows is the number of MA windows the profile was built from.
	Windows int

	// MeanAccess and StdAccess are μ_E and σ_E of the EWMA'd AccessNum.
	MeanAccess, StdAccess float64
	// MeanMiss and StdMiss are μ_E and σ_E of the EWMA'd MissNum.
	MeanMiss, StdMiss float64

	// Periodic reports whether the application shows a stable repeating
	// MA pattern (the Stage-1 periodicity check).
	Periodic bool
	// PeriodMA is the period in MA windows (0 when not periodic). The
	// paper's FaceNet example has PeriodMA ≈ 17.
	PeriodMA int
}

// Bounds returns the SDS/B normal range [μ−kσ, μ+kσ] for the given counter.
func (p Profile) Bounds(metric Metric, k float64) (lo, hi float64, err error) {
	var mean, std float64
	switch metric {
	case MetricAccess:
		mean, std = p.MeanAccess, p.StdAccess
	case MetricMiss:
		mean, std = p.MeanMiss, p.StdMiss
	default:
		return 0, 0, fmt.Errorf("detect: no bounds for metric %v", metric)
	}
	return mean - k*std, mean + k*std, nil
}

// BuildProfile computes a Profile from attack-free PCM samples using the
// pipeline of §4.1 (MA with window W and step ΔW, then EWMA with factor α).
// It needs enough samples for a statistically useful number of MA windows.
// It is the batch form of Profiler.
func BuildProfile(app string, samples []pcm.Sample, cfg Config) (Profile, error) {
	p, err := NewProfiler(app, cfg)
	if err != nil {
		return Profile{}, err
	}
	for _, s := range samples {
		p.Observe(s)
	}
	return p.Profile()
}

// Profiler builds a Stage-1 Profile from a stream of attack-free samples.
// It runs each sample through the same MA→EWMA pipeline the detectors use
// and keeps only the per-window values the profile is computed from — the
// AccessNum moving averages (for the periodicity check) and both EWMA
// series (for μ_E and σ_E) — so its memory is W/ΔW times smaller than the
// raw window's.
type Profiler struct {
	app string
	cfg Config
	pipeline

	samples int
	// The per-window series: AccessNum M_n and S_n of both counters.
	seriesMA, seriesEA, seriesEM []float64
}

// NewProfiler returns an empty profiler for app.
func NewProfiler(app string, cfg Config) (*Profiler, error) {
	pipe, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return &Profiler{app: app, cfg: cfg, pipeline: pipe}, nil
}

// Observe feeds the next Stage-1 sample.
func (p *Profiler) Observe(s pcm.Sample) {
	p.samples++
	mA, mM, ok := p.push(s)
	if !ok {
		return
	}
	eA, eM := p.smooth(mA, mM)
	p.seriesMA = append(p.seriesMA, mA)
	p.seriesEA = append(p.seriesEA, eA)
	p.seriesEM = append(p.seriesEM, eM)
}

// Profile computes the profile of the samples observed so far. It fails
// when they span fewer than a statistically useful number of MA windows.
func (p *Profiler) Profile() (Profile, error) {
	const minWindows = 20
	if len(p.seriesMA) < minWindows {
		return Profile{}, fmt.Errorf("detect: profiling %q needs at least %d samples (%d MA windows), got %d",
			p.app, p.cfg.W+(minWindows-1)*p.cfg.DW, minWindows, p.samples)
	}
	prof := Profile{
		App:        p.app,
		Windows:    len(p.seriesMA),
		MeanAccess: timeseries.Mean(p.seriesEA),
		StdAccess:  timeseries.StdDev(p.seriesEA),
		MeanMiss:   timeseries.Mean(p.seriesEM),
		StdMiss:    timeseries.StdDev(p.seriesEM),
	}
	// Stage-1 periodicity check on the MA series (EWMA may smooth the
	// pattern away, §4.2.2 computes periods over MA).
	if period, ok := signal.IsPeriodic(p.seriesMA, p.cfg.PeriodTolerance, periodOptions(p.cfg, 0)); ok {
		prof.Periodic = true
		prof.PeriodMA = period
	}
	return prof, nil
}

// maxProfilePeriod caps the MA-window period the Stage-1 check will accept
// (60 windows = 30 s with Table 1 parameters). Longer "periods" are slow
// phase alternation, not the batch-processing cycles SDS/P targets — and a
// detector window of W_P = 2p would make period monitoring uselessly slow.
const maxProfilePeriod = 60

// periodOptions builds the estimator options SDS/P and the profiler share.
// knownPeriod > 0 narrows the minimum candidate period, stabilising
// estimates on short W_P windows; knownPeriod == 0 (profiling) caps the
// maximum period instead.
func periodOptions(cfg Config, knownPeriod int) signal.PeriodOptions {
	opts := signal.PeriodOptions{}
	if knownPeriod > 0 {
		opts.MinPeriod = max(2, knownPeriod/3)
		return opts
	}
	opts.MaxPeriod = maxProfilePeriod
	return opts
}
