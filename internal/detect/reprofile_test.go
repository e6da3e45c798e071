package detect

import (
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

func TestNewReprofilerValidation(t *testing.T) {
	prof := steadyProfile(t, workload.KMeans, 130)
	if _, err := NewReprofiler(workload.KMeans, prof, DefaultConfig(), 5); err == nil {
		t.Error("undersized buffer accepted")
	}
	bad := DefaultConfig()
	bad.HC = 0
	if _, err := NewReprofiler(workload.KMeans, prof, bad, 600); err == nil {
		t.Error("bad config accepted")
	}
}

// shiftedModel returns a k-means telemetry model whose base level moved by
// the given factor — "the application changed dramatically" (§6).
func shiftedModel(t *testing.T, factor float64, seed uint64) *workload.Model {
	t.Helper()
	prof := workload.MustAppProfile(workload.KMeans)
	prof.BaseAccess *= factor
	m, err := workload.NewModel(prof, randx.Derive(seed, 7))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReprofilerRecoversFromApplicationChange(t *testing.T) {
	cfg := DefaultConfig()
	prof := steadyProfile(t, workload.KMeans, 131)
	r, err := NewReprofiler(workload.KMeans, prof, cfg, 600)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: normal behaviour — no persistent alarm.
	normal := shiftedModel(t, 1.0, 131)
	now := 0.0
	feedModel := func(m *workload.Model, seconds float64, env workload.Env) {
		n := int(seconds / cfg.TPCM)
		for i := 0; i < n; i++ {
			now += cfg.TPCM
			a, miss := m.Sample(cfg.TPCM, env)
			r.Observe(pcm.Sample{T: now, Access: a, Miss: miss})
		}
	}
	feedModel(normal, 300, workload.Env{})
	if r.StaleSuspected(120) {
		t.Fatal("stale suspected during normal behaviour")
	}

	// Phase 2: the application legitimately changes (base level +60%).
	// SDS starts alarming persistently — a stale profile, not an attack.
	changed := shiftedModel(t, 1.6, 132)
	feedModel(changed, 900, workload.Env{})
	if !r.Alarmed() {
		t.Fatal("no alarm after a 60% behavioural shift; the stale-profile scenario did not materialize")
	}
	if !r.StaleSuspected(120) {
		t.Fatal("persistent alarm not flagged as suspected-stale")
	}

	// Phase 3: the tenant confirms the change; the provider re-profiles
	// from the rolling buffer (filled with post-change samples).
	newProf, err := r.Reprofile()
	if err != nil {
		t.Fatal(err)
	}
	if newProf.MeanAccess < 1.3*prof.MeanAccess {
		t.Fatalf("re-profile mean %v did not track the change (was %v)", newProf.MeanAccess, prof.MeanAccess)
	}
	if r.Reprofiles() != 1 {
		t.Fatalf("reprofiles = %d", r.Reprofiles())
	}
	feedModel(changed, 300, workload.Env{})
	if r.Alarmed() {
		t.Fatal("still alarmed on the new baseline after re-profiling")
	}

	// Phase 4: an actual attack on the new baseline is still detected.
	sched := attack.Schedule{Kind: attack.BusLock, Start: now, Ramp: 10}
	n := int(200 / cfg.TPCM)
	for i := 0; i < n; i++ {
		now += cfg.TPCM
		a, miss := changed.Sample(cfg.TPCM, sched.Env(now, false))
		r.Observe(pcm.Sample{T: now, Access: a, Miss: miss})
	}
	if !r.Alarmed() {
		t.Fatal("attack on the re-profiled baseline missed")
	}
}

func TestReprofileRequiresFullBuffer(t *testing.T) {
	cfg := DefaultConfig()
	prof := steadyProfile(t, workload.KMeans, 133)
	r, err := NewReprofiler(workload.KMeans, prof, cfg, 600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reprofile(); err == nil {
		t.Fatal("reprofile with an empty buffer accepted")
	}
}
