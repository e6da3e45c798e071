package sds

import (
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// Simulation types, re-exported for downstream users.
type (
	// Application is a calibrated telemetry model of one of the paper's
	// ten cloud applications: it generates the (AccessNum, MissNum)
	// counter stream a PCM tool would report for the VM running it.
	Application = workload.Model
	// AppProfile holds the statistical signature behind an Application.
	AppProfile = workload.Profile
	// Env is the contention environment of one sampling instant.
	Env = workload.Env
	// AttackKind selects a memory DoS attack.
	AttackKind = attack.Kind
	// AttackSchedule maps virtual time to attack intensity.
	AttackSchedule = attack.Schedule
)

// Attack kinds.
const (
	NoAttack      = attack.None
	BusLockAttack = attack.BusLock
	CleanseAttack = attack.Cleanse
)

// Application names from the paper's measurement study.
const (
	Bayes       = workload.Bayes
	SVM         = workload.SVM
	KMeans      = workload.KMeans
	PCA         = workload.PCA
	Aggregation = workload.Aggregation
	Join        = workload.Join
	Scan        = workload.Scan
	TeraSort    = workload.TeraSort
	PageRank    = workload.PageRank
	FaceNet     = workload.FaceNet
)

// Applications lists all modelled application names.
func Applications() []string { return workload.AppNames() }

// PeriodicApplications lists the applications with periodic cache-access
// patterns (PCA and FaceNet in the paper).
func PeriodicApplications() []string { return workload.PeriodicApps() }

// NewApplication instantiates a named application's telemetry model with a
// deterministic random stream derived from seed.
func NewApplication(name string, seed uint64) (*Application, error) {
	prof, err := workload.AppProfile(name)
	if err != nil {
		return nil, err
	}
	return workload.NewModel(prof, randx.DeriveString(seed, name))
}

// ApplicationProfile returns the calibrated statistical profile of a named
// application, for inspection or as a starting point for custom workloads.
func ApplicationProfile(name string) (AppProfile, error) {
	return workload.AppProfile(name)
}

// NewApplicationFromProfile instantiates a telemetry model from a custom
// profile — e.g. an ApplicationProfile with adjusted levels, or an entirely
// synthetic workload.
func NewApplicationFromProfile(prof AppProfile, seed uint64) (*Application, error) {
	return workload.NewModel(prof, randx.DeriveString(seed, prof.Name+"/custom"))
}

// CollectProfile runs Stage 1 for an application: it samples `seconds` of
// attack-free telemetry at the configured T_PCM and builds the detection
// profile. A few hundred seconds are typically needed to cover the
// application's execution phases; 900 s matches the evaluation harness.
func CollectProfile(name string, seed uint64, seconds float64, cfg Config) (Profile, error) {
	if err := cfg.Validate(); err != nil {
		return Profile{}, err
	}
	model, err := NewApplication(name, seed)
	if err != nil {
		return Profile{}, err
	}
	n := SampleCount(seconds, cfg.TPCM)
	samples := make([]Sample, n)
	for i := 0; i < n; i++ {
		a, m := model.Sample(cfg.TPCM, Env{})
		samples[i] = pcm.Sample{T: float64(i+1) * cfg.TPCM, Access: a, Miss: m}
	}
	return BuildProfile(name, samples, cfg)
}

// SimulateOptions configures a Simulate run.
type SimulateOptions struct {
	// Seconds is the virtual run duration.
	Seconds float64
	// Attack is the attack schedule (zero value: no attack).
	Attack AttackSchedule
	// OnSample, when set, observes every generated sample after the
	// detector has processed it.
	OnSample func(s Sample, alarmed bool)
}

// Simulate runs a closed detection loop: the application's telemetry stream
// — with the attack schedule applied — is fed to the detector sample by
// sample. While a *KSTest detector collects reference samples (its
// Collecting method), the attacker is paused, exactly as execution
// throttling does on a real hypervisor; other detectors never throttle. It
// returns all alarms the detector raised.
func Simulate(app *Application, det Detector, cfg Config, opts SimulateOptions) ([]Alarm, error) {
	if app == nil || det == nil {
		return nil, fmt.Errorf("sds: Simulate requires an application and a detector")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("sds: simulation duration must be positive, got %v", opts.Seconds)
	}
	n := SampleCount(opts.Seconds, cfg.TPCM)
	for i := 0; i < n; i++ {
		now := float64(i+1) * cfg.TPCM
		a, m := app.Sample(cfg.TPCM, opts.Attack.Env(now, detect.Collecting(det)))
		s := pcm.Sample{T: now, Access: a, Miss: m}
		det.Observe(s)
		if opts.OnSample != nil {
			opts.OnSample(s, det.Alarmed())
		}
	}
	return det.Alarms(), nil
}
