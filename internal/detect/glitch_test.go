package detect_test

import (
	"math"
	"testing"

	"github.com/memdos/sds/internal/cloudsim"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// monitoredKMeans streams the monitored stage of a clean seed-3 kmeans run,
// t = 900 s to 1500 s, into a fresh SDS built on prof, behind a Sanitizer
// when sanitize is set. glitch, when non-nil, rewrites the counters of the
// sample at t = 1000 s. It returns what the stream was fed to.
func monitoredKMeans(t *testing.T, prof detect.Profile, sanitize bool, glitch func(a, m float64) (float64, float64)) detect.Detector {
	t.Helper()
	cfg := detect.DefaultConfig()
	det, err := detect.NewSDS(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var d detect.Detector = det
	if sanitize {
		d = detect.NewSanitizer(det)
	}
	model, err := workload.NewModel(workload.MustAppProfile("kmeans"), randx.DeriveString(3, "kmeans/run"))
	if err != nil {
		t.Fatal(err)
	}
	start := pcm.SampleCount(900, cfg.TPCM)
	glitchAt := pcm.SampleCount(1000, cfg.TPCM)
	for i := start; i < pcm.SampleCount(1500, cfg.TPCM); i++ {
		a, m := model.Sample(cfg.TPCM, workload.Env{})
		if glitch != nil && i == glitchAt {
			a, m = glitch(a, m)
		}
		d.Observe(pcm.Sample{T: float64(i+1) * cfg.TPCM, Access: a, Miss: m})
	}
	return d
}

// kmeansProfile is the 900 s Stage-1 profile of the seed-3 kmeans run.
func kmeansProfile(t *testing.T) detect.Profile {
	t.Helper()
	prof, err := cloudsim.Stage1Profile("kmeans", 3, 900, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestMonitoredGlitchDoesNotLatch: one counter sample of 1e25 at t = 1000 s
// must not leave SDS alarmed for the rest of a clean kmeans run. The glitch
// leaves the 2 s MA window after 2 s; a running MA sum that never recovers
// the precision the glitch destroyed kept the AccessNum EWMA far below its
// band until t = 1500 s. The sample goes to the detector directly: the
// Sanitizer's counter ceiling would drop it, and the subject here is the
// MA's recovery once the glitch's block leaves the window.
func TestMonitoredGlitchDoesNotLatch(t *testing.T) {
	prof := kmeansProfile(t)
	if monitoredKMeans(t, prof, false, nil).Alarmed() {
		t.Fatal("clean stream ends alarmed; the reproduction needs a quiet control")
	}
	glitch := func(a, m float64) (float64, float64) { return 1e25, 1e25 }
	if monitoredKMeans(t, prof, false, glitch).Alarmed() {
		t.Error("a single 1e25 sample at t=1000 s latched an alarm until t=1500 s")
	}
}

// TestSanitizerDropsBitFlippedCounter: one flipped exponent bit (bit 61) in
// a binary frame turns an access count of about 2e5 into about 3.6e159, a
// finite value. Admitted, it holds the alarm until t ≈ 1800 s; the
// Sanitizer's counter ceiling must drop it, so the run ends as quiet as the
// clean stream does.
func TestSanitizerDropsBitFlippedCounter(t *testing.T) {
	prof := kmeansProfile(t)
	flip := func(a, m float64) (float64, float64) {
		return math.Float64frombits(math.Float64bits(a) ^ 1<<61), m
	}
	guard := monitoredKMeans(t, prof, true, flip).(*detect.Sanitizer)
	if got := guard.Dropped(); got != 1 {
		t.Errorf("sanitizer dropped %d samples, want the 1 bit-flipped one", got)
	}
	if guard.Alarmed() {
		t.Error("a bit-flipped access count at t=1000 s left SDS alarmed at t=1500 s")
	}
}
