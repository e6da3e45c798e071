package experiment

import (
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// MigrationPolicy selects the provider's response strategy in the
// migration study.
type MigrationPolicy string

// The policies of the migration study.
const (
	// PolicyNone never migrates: the attack persists once co-located.
	PolicyNone MigrationPolicy = "none"
	// PolicyOnAlarm migrates the victim when the detector alarms.
	PolicyOnAlarm MigrationPolicy = "migrate-on-alarm"
)

// MigrationResult is one row of the migration study, which reproduces the
// paper's introduction argument: VM migration alone is not sufficient to
// defeat memory DoS attacks, because the attacker can re-co-locate with the
// victim cheaply and in minutes [Ristenpart et al., Varadarajan et al., Xu
// et al.] — but pairing migration with a fast detector bounds the fraction
// of time the victim spends degraded, and faster detection bounds it
// tighter.
type MigrationResult struct {
	Policy MigrationPolicy
	Scheme Scheme // detector driving migrations (empty for PolicyNone)

	// UnderAttackFrac is the fraction of run time with the attack at full
	// ramp against the victim.
	UnderAttackFrac float64
	// AvgSlowdown is the victim's mean attack-induced slowdown factor
	// (0 = unimpeded, 0.6 = running at 40% speed).
	AvgSlowdown float64
	// Migrations is the number of times the victim was migrated.
	Migrations int
	// FalseMigrations is how many of those happened with no attack active.
	FalseMigrations int
}

// MigrationStudyConfig tunes the migration scenario.
type MigrationStudyConfig struct {
	// App is the victim application.
	App string
	// Seconds is the scenario length (default 1800).
	Seconds float64
	// FirstAttack is when the attacker first achieves co-location
	// (default 120).
	FirstAttack float64
	// MeanRelocate is the mean time the attacker needs to re-co-locate
	// after a migration (default 180 s — co-location takes minutes in the
	// studies the paper cites).
	MeanRelocate float64
	// MigrationPause is the victim's service interruption per migration
	// (default 2 s).
	MigrationPause float64
	// Kind is the attack used (default bus locking).
	Kind attack.Kind
}

func (m MigrationStudyConfig) withDefaults() MigrationStudyConfig {
	if m.App == "" {
		m.App = workload.KMeans
	}
	if m.Seconds == 0 {
		m.Seconds = 1800
	}
	if m.FirstAttack == 0 {
		m.FirstAttack = 120
	}
	if m.MeanRelocate == 0 {
		m.MeanRelocate = 180
	}
	if m.MigrationPause == 0 {
		m.MigrationPause = 2
	}
	if m.Kind == attack.None {
		m.Kind = attack.BusLock
	}
	return m
}

// MigrationStudy runs the scenario under the given policy and detector
// scheme (ignored for PolicyNone).
func (c Config) MigrationStudy(study MigrationStudyConfig, policy MigrationPolicy, scheme Scheme) (MigrationResult, error) {
	if err := c.Validate(); err != nil {
		return MigrationResult{}, err
	}
	study = study.withDefaults()
	if policy != PolicyNone && policy != PolicyOnAlarm {
		return MigrationResult{}, fmt.Errorf("experiment: unknown migration policy %q", policy)
	}

	seed := randx.Derive(c.Seed, 0x316772a7e).Uint64()
	res := MigrationResult{Policy: policy, Scheme: scheme}

	var det detect.Detector
	if policy == PolicyOnAlarm {
		prof, err := c.buildProfile(study.App, seed)
		if err != nil {
			return MigrationResult{}, err
		}
		det, err = c.newDetector(scheme, prof)
		if err != nil {
			return MigrationResult{}, err
		}
		res.Scheme = scheme
	}

	rng := randx.DeriveString(seed, study.App+"/migration")
	model, err := workload.NewModel(workload.MustAppProfile(study.App), rng)
	if err != nil {
		return MigrationResult{}, err
	}

	prof := model.Profile()
	tpcm := c.Detect.TPCM
	n := pcm.SampleCount(study.Seconds, tpcm)
	sched := attack.Schedule{Kind: study.Kind, Start: study.FirstAttack, Ramp: rng.Uniform(c.RampMin, c.RampMax)}
	var (
		pausedUntil float64
		attackTicks int
		slowdownSum float64
	)
	for i := 0; i < n; i++ {
		now := float64(i+1) * tpcm
		env := sched.Env(now, detect.Collecting(det))
		if now < pausedUntil {
			// Mid-migration: the victim is being moved; the attacker
			// cannot reach it, but the victim also does no useful work.
			env = workload.Env{}
			slowdownSum++
		} else {
			slowdownSum += prof.BusLockDrop*env.BusLock + 0.5*env.Cleanse
		}
		if env.BusLock > 0 || env.Cleanse > 0 {
			if sched.Intensity(now) >= 1 {
				attackTicks++
			}
		}
		a, m := model.Sample(tpcm, env)
		if det == nil {
			continue
		}
		det.Observe(pcm.Sample{T: now, Access: a, Miss: m})
		if det.Alarmed() && now >= pausedUntil {
			// Migrate: the attack (if any) is broken off; the attacker
			// needs to re-co-locate before it can resume.
			res.Migrations++
			if !sched.Active(now) {
				res.FalseMigrations++
			}
			pausedUntil = now + study.MigrationPause
			relocate := rng.Exp(study.MeanRelocate)
			sched = attack.Schedule{
				Kind:  study.Kind,
				Start: now + relocate,
				Ramp:  rng.Uniform(c.RampMin, c.RampMax),
			}
			det, err = c.resetDetector(scheme, study.App, seed+uint64(res.Migrations))
			if err != nil {
				return MigrationResult{}, err
			}
		}
	}
	res.UnderAttackFrac = float64(attackTicks) / float64(n)
	res.AvgSlowdown = slowdownSum / float64(n)
	return res, nil
}

// resetDetector re-profiles and rebuilds the detector after a migration —
// the paper's Stage 1 runs anew whenever a VM is migrated, since the new
// host is attack-free at that moment.
func (c Config) resetDetector(scheme Scheme, app string, seed uint64) (detect.Detector, error) {
	prof, err := c.buildProfile(app, seed)
	if err != nil {
		return nil, err
	}
	return c.newDetector(scheme, prof)
}
