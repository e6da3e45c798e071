package server

import (
	"runtime"
	"testing"

	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// TestStageOneStreamsWithoutRawWindow: Stage 1 streams into the profiler
// instead of buffering the raw window, so a 900 s profile (90 000 samples,
// 2.1 MB of raw samples) costs a small fraction of that in allocations.
func TestStageOneStreamsWithoutRawWindow(t *testing.T) {
	const (
		tpcm           = 0.01
		profileSeconds = 900
		n              = profileSeconds * 100 // every sample before the boundary
		budget         = 256 << 10
	)
	samples := make([]pcm.Sample, n)
	for i := range samples {
		samples[i] = synthSample(i, tpcm, 100)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sess, err := NewSession(StreamSpec{VM: "mem", ProfileSeconds: profileSeconds})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < n; off += 1000 {
		if _, err := sess.ObserveBatch(samples[off:min(off+1000, n)]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if !sess.Profiling() {
		t.Fatal("session left Stage 1 before its boundary sample")
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Stage 1 of %d samples allocated %d B", n, got)
	if got >= budget {
		t.Errorf("Stage 1 of %d samples allocated %d B, want < %d", n, got, budget)
	}
}

// TestSessionProfileMatchesBuildProfile: for every application the profile
// a session delivers at its Stage-1 boundary equals BuildProfile over the
// same samples.
func TestSessionProfileMatchesBuildProfile(t *testing.T) {
	const (
		tpcm           = 0.01
		profileSeconds = 60
		n              = profileSeconds * 100
	)
	for i, app := range workload.AppNames() {
		model, err := workload.NewModel(workload.MustAppProfile(app), randx.New(uint64(i), 17))
		if err != nil {
			t.Fatal(err)
		}
		samples := make([]pcm.Sample, n+1) // the last one is the boundary sample
		for j := range samples {
			a, m := model.Sample(tpcm, workload.Env{})
			samples[j] = pcm.Sample{T: float64(j+1) * tpcm, Access: a, Miss: m}
		}
		var got detect.Profile
		delivered := 0
		sess, err := NewSession(StreamSpec{VM: app, App: app, ProfileSeconds: profileSeconds,
			OnProfile: func(p detect.Profile, samples int) { got, delivered = p, samples }})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.ObserveBatch(samples); err != nil {
			t.Fatal(err)
		}
		want, err := detect.BuildProfile(app, samples[:n], detect.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if delivered != n || got != want {
			t.Errorf("%s: OnProfile delivered %+v from %d samples, want %+v from %d", app, got, delivered, want, n)
		}
	}
}

// TestSessionRejectsInvalidKSConfigUpFront: the raw-sample KStest is built
// when the session opens, so a bad baseline config fails NewSession rather
// than the Stage-1 boundary minutes later.
func TestSessionRejectsInvalidKSConfigUpFront(t *testing.T) {
	bad := detect.DefaultKSTestConfig()
	bad.Alpha = 2
	if _, err := NewSession(StreamSpec{VM: "ks", Scheme: "kstest", ProfileSeconds: 30, KSConfig: bad}); err == nil {
		t.Fatal("invalid KStest config accepted at NewSession")
	}
}
