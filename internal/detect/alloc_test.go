package detect

import (
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/workload"
)

// These tests pin the steady-state allocation behaviour of every detector's
// Observe path at zero: the per-sample pipeline (ring updates, moving
// averages, period estimation, KS comparisons) must run without touching
// the heap once warmed up. A regression here silently reintroduces GC
// pressure multiplied by ~60k samples per run across the whole grid.

// observeAllocs feeds the detector `warm` samples to fill windows, build FFT
// plans and grow scratch, then measures allocations over the next batch.
func observeAllocs(t *testing.T, d Detector, samples []pcm.Sample, warm int) float64 {
	t.Helper()
	if warm >= len(samples) {
		t.Fatalf("warmup %d consumes all %d samples", warm, len(samples))
	}
	for _, s := range samples[:warm] {
		d.Observe(s)
	}
	rest := samples[warm:]
	i := 0
	return testing.AllocsPerRun(len(rest)-1, func() {
		d.Observe(rest[i])
		i++
	})
}

// TestObserveZeroAlloc covers every registered scheme on FaceNet, which is
// periodic: SDS/P applies and SDS runs its SDS/P half, so the measured
// window includes full DFT–ACF estimation rounds, not just ring pushes.
// 120 s of attack-free samples also span EWMAVar's burn-in and
// calibration, so its post-calibration violation tracking is measured too.
func TestObserveZeroAlloc(t *testing.T) {
	prof := steadyProfile(t, workload.FaceNet, 75)
	for _, s := range Schemes() {
		t.Run(s.Name, func(t *testing.T) {
			d, err := s.New(prof, DefaultConfig(), DefaultKSTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			seconds, warmDiv := 120.0, 2
			if s.Raw {
				// KStest: warm past the first reference collection
				// (W_R = 1 s) but stop before the next one at L_R = 30 s,
				// so the measured window covers monitored ring pushes and
				// KS checks only. Reference collection itself appends to a
				// reusable buffer and is amortized (W_R/L_R of samples).
				seconds, warmDiv = 29, 4
			}
			samples := genSamples(t, workload.FaceNet, 76, seconds, attack.Schedule{})
			if allocs := observeAllocs(t, d, samples, len(samples)/warmDiv); allocs != 0 {
				t.Fatalf("%s.Observe: %.2f allocs/op in steady state, want 0", s.Name, allocs)
			}
		})
	}
}
