// Package experiment reproduces the paper's measurement study (§3) and
// evaluation (§5): every figure and table has a runner here that assembles
// the workload models, attack schedules and detectors, executes seeded
// closed-loop runs, and reports the same statistics the paper plots.
// EXPERIMENTS.md records how the outputs compare with the published values.
package experiment

import (
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/cloudsim"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/metrics"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// Scheme identifies a detection scheme under evaluation.
type Scheme string

// The schemes of the paper's evaluation (§5.1), plus the detector-zoo
// baselines fielded for the ROC tournament.
const (
	SchemeSDS      Scheme = "SDS"      // combined system
	SchemeSDSB     Scheme = "SDS/B"    // boundary-based alone
	SchemeSDSP     Scheme = "SDS/P"    // period-based alone (periodic apps only)
	SchemeKSTest   Scheme = "KStest"   // baseline of Zhang et al.
	SchemeCUSUM    Scheme = "CUSUM"    // two-sided change-point over EWMA counters
	SchemeTimeFrag Scheme = "TimeFrag" // fragmentation-tolerant windowed density
	SchemeEWMAVar  Scheme = "EWMAVar"  // EWMA-of-variance baseline
	SchemeNone     Scheme = "none"     // no detection (overhead baseline)
)

// Config parameterizes the evaluation harness. Construct with
// DefaultConfig and override fields as needed.
type Config struct {
	// Seed drives every random choice; equal seeds reproduce runs exactly.
	Seed uint64
	// Runs is the number of repetitions per cell (the paper uses 20).
	Runs int
	// Parallel bounds the experiment engine's worker pool: the number of
	// detection runs executed concurrently by Accuracy, Sweep and
	// Overhead. Zero means one worker per available CPU; results are
	// bit-identical at every setting because each run is independently
	// seeded and collected in input order.
	Parallel int
	// ProfileSeconds is the Stage-1 attack-free profiling duration. It
	// must cover enough execution-phase cycles of the slowest application
	// for stable μ/σ estimates (k-means alternates phases every ~2.5 min,
	// so the default is ~33 min of virtual time — cheap in simulation).
	ProfileSeconds float64
	// StageSeconds is the length of each evaluation stage: the run lasts
	// 2·StageSeconds with the attack starting at StageSeconds (the paper
	// uses 300 s + 300 s).
	StageSeconds float64
	// EpochSeconds is the accuracy-scoring epoch length.
	EpochSeconds float64
	// RampMin and RampMax bound the attacker's randomized ramp-up time.
	RampMin, RampMax float64
	// Detect carries the SDS parameters (Table 1).
	Detect detect.Config
	// KSTest carries the baseline parameters.
	KSTest detect.KSTestConfig

	// profiles deduplicates Stage-1 profiling across grid cells that share
	// a (app, seed, parameters) profile. Attached by the grid runners
	// (Accuracy, Sweep); nil means profiles are built per run.
	profiles *profileCache
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Runs:           20,
		ProfileSeconds: 2000,
		StageSeconds:   300,
		EpochSeconds:   30,
		RampMin:        8,
		RampMax:        18,
		Detect:         detect.DefaultConfig(),
		KSTest:         detect.DefaultKSTestConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Runs <= 0:
		return fmt.Errorf("experiment: Runs must be positive, got %d", c.Runs)
	case c.Parallel < 0:
		return fmt.Errorf("experiment: Parallel must be ≥ 0 (0 = all CPUs), got %d", c.Parallel)
	case c.ProfileSeconds <= 0 || c.StageSeconds <= 0 || c.EpochSeconds <= 0:
		return fmt.Errorf("experiment: durations must be positive: %+v", c)
	case c.RampMin < 0 || c.RampMax < c.RampMin:
		return fmt.Errorf("experiment: bad ramp range [%v, %v]", c.RampMin, c.RampMax)
	}
	if err := c.Detect.Validate(); err != nil {
		return err
	}
	return c.KSTest.Validate()
}

// SchemesFor returns the schemes evaluated for an application, in registry
// order: the paper's set — SDS and KStest everywhere, plus standalone SDS/B
// and SDS/P for the periodic applications (PCA, FaceNet) — extended with
// the detector-zoo baselines (CUSUM, TimeFrag, EWMAVar), which apply to
// every application. For a non-periodic application SDS is SDS/B alone and
// SDS/P does not apply, so neither is evaluated on its own.
func SchemesFor(app string) []Scheme {
	periodic := workload.MustAppProfile(app).Periodic
	var out []Scheme
	for _, s := range detect.Schemes() {
		if name := Scheme(s.Name); periodic || (name != SchemeSDSB && name != SchemeSDSP) {
			out = append(out, name)
		}
	}
	return out
}

// buildProfile runs Stage 1: an attack-free profiling pass for the app.
func (c Config) buildProfile(app string, seed uint64) (detect.Profile, error) {
	return cloudsim.Stage1Profile(app, seed, c.ProfileSeconds, c.Detect)
}

// newDetector constructs the scheme's detector from a Stage-1 profile.
func (c Config) newDetector(scheme Scheme, prof detect.Profile) (detect.Detector, error) {
	s, err := detect.LookupScheme(string(scheme))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return s.New(prof, c.Detect, c.KSTest)
}

// BuildDetector runs Stage-1 profiling for the app and constructs the
// scheme's detector. A closed loop quiesces the co-located VMs while
// detect.Collecting reports the detector collecting. This is the entry
// point interactive tools use (cmd/sdsmon).
func (c Config) BuildDetector(app string, scheme Scheme, seed uint64) (detect.Profile, detect.Detector, error) {
	if err := c.Validate(); err != nil {
		return detect.Profile{}, nil, err
	}
	prof, err := c.buildProfile(app, seed)
	if err != nil {
		return detect.Profile{}, nil, fmt.Errorf("profile %s: %w", app, err)
	}
	det, err := c.newDetector(scheme, prof)
	if err != nil {
		return detect.Profile{}, nil, fmt.Errorf("build %s for %s: %w", scheme, app, err)
	}
	return prof, det, nil
}

// DetectionRun executes one closed-loop evaluation run: StageSeconds
// without attack, then StageSeconds under the given attack, with the
// detector observing PCM samples in real time. It returns the epoch-scored
// outcome.
func (c Config) DetectionRun(app string, kind attack.Kind, scheme Scheme, run int) (metrics.Outcome, error) {
	return c.detectionRun(app, kind, scheme, run, nil)
}

// detectionRun is DetectionRun with an optional schedule modifier: mod runs
// after the attack schedule is drawn (and consumes no run randomness, so
// modified runs share the unmodified runs' sample paths exactly) with the
// Stage-1 profile in scope — the evasion grid uses it to attach adaptive
// strategies tuned against the victim's profiled period and the detector's
// window geometry.
func (c Config) detectionRun(app string, kind attack.Kind, scheme Scheme, run int,
	mod func(prof detect.Profile, sched attack.Schedule) (attack.Schedule, error)) (metrics.Outcome, error) {
	if err := c.Validate(); err != nil {
		return metrics.Outcome{}, err
	}
	seed := randx.Derive(c.Seed, uint64(run)).Uint64()
	prof, err := c.cachedProfile(app, seed)
	if err != nil {
		return metrics.Outcome{}, fmt.Errorf("profile %s: %w", app, err)
	}
	det, err := c.newDetector(scheme, prof)
	if err != nil {
		return metrics.Outcome{}, fmt.Errorf("build %s for %s: %w", scheme, app, err)
	}

	runRng := randx.DeriveString(seed, app+"/run")
	model, err := workload.NewModel(workload.MustAppProfile(app), runRng)
	if err != nil {
		return metrics.Outcome{}, err
	}
	sched := attack.Schedule{
		Kind:  kind,
		Start: c.StageSeconds,
		Ramp:  runRng.Uniform(c.RampMin, c.RampMax),
	}
	if mod != nil {
		// By-value in and out: handing mod a *Schedule would make sched
		// escape to the heap on every detection run, modified or not.
		if sched, err = mod(prof, sched); err != nil {
			return metrics.Outcome{}, err
		}
	}

	tpcm := c.Detect.TPCM
	total := 2 * c.StageSeconds
	n := pcm.SampleCount(total, tpcm)
	states := make([]metrics.AlarmState, n)
	for i := 0; i < n; i++ {
		now := float64(i+1) * tpcm
		a, m := model.Sample(tpcm, sched.Env(now, detect.Collecting(det)))
		det.Observe(pcm.Sample{T: now, Access: a, Miss: m})
		states[i] = metrics.AlarmState{T: now, Alarmed: det.Alarmed()}
	}

	scorer := metrics.Scorer{
		RunSeconds:   total,
		AttackStart:  c.StageSeconds,
		EpochSeconds: c.EpochSeconds,
	}
	if kind == attack.None {
		scorer.AttackStart = 0
	}
	return scorer.Score(states)
}
