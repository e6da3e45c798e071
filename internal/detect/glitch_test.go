package detect_test

import (
	"testing"

	"github.com/memdos/sds/internal/cloudsim"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// TestMonitoredGlitchDoesNotLatch: one admitted counter sample of 1e25 at
// t = 1000 s must not leave SDS alarmed for the rest of a clean kmeans run.
// The glitch leaves the 2 s MA window after 2 s; a running MA sum that
// never recovers the precision the glitch destroyed kept the AccessNum
// EWMA far below its band until t = 1500 s.
func TestMonitoredGlitchDoesNotLatch(t *testing.T) {
	cfg := detect.DefaultConfig()
	prof, err := cloudsim.Stage1Profile("kmeans", 3, 900, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(glitch bool) bool {
		det, err := detect.NewSDS(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		guard := detect.NewSanitizer(det)
		model, err := workload.NewModel(workload.MustAppProfile("kmeans"), randx.DeriveString(3, "kmeans/run"))
		if err != nil {
			t.Fatal(err)
		}
		start := pcm.SampleCount(900, cfg.TPCM)
		glitchAt := pcm.SampleCount(1000, cfg.TPCM)
		for i := start; i < pcm.SampleCount(1500, cfg.TPCM); i++ {
			a, m := model.Sample(cfg.TPCM, workload.Env{})
			if glitch && i == glitchAt {
				a, m = 1e25, 1e25
			}
			guard.Observe(pcm.Sample{T: float64(i+1) * cfg.TPCM, Access: a, Miss: m})
		}
		if guard.Dropped() != 0 {
			t.Fatalf("sanitizer dropped %d samples; the glitch must be admitted to reproduce", guard.Dropped())
		}
		return guard.Alarmed()
	}
	if run(false) {
		t.Fatal("clean stream ends alarmed; the reproduction needs a quiet control")
	}
	if run(true) {
		t.Error("a single 1e25 sample at t=1000 s latched an alarm until t=1500 s")
	}
}
