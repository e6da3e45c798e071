package detect

import (
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/signal"
	"github.com/memdos/sds/internal/timeseries"
	"github.com/memdos/sds/internal/workload"
)

// batchProfile is the batch formulation of §4.1 the streaming Profiler
// replaced: the whole MA series per counter, then the whole EWMA series.
func batchProfile(t *testing.T, app string, samples []pcm.Sample, cfg Config) Profile {
	t.Helper()
	rawA := make([]float64, len(samples))
	rawM := make([]float64, len(samples))
	for i, s := range samples {
		rawA[i], rawM[i] = s.Access, s.Miss
	}
	maA, err := timeseries.MovingAverage(rawA, cfg.W, cfg.DW)
	if err != nil {
		t.Fatal(err)
	}
	maM, err := timeseries.MovingAverage(rawM, cfg.W, cfg.DW)
	if err != nil {
		t.Fatal(err)
	}
	ewA, err := timeseries.EWMASeries(maA, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	ewM, err := timeseries.EWMASeries(maM, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile{
		App:        app,
		Windows:    len(maA),
		MeanAccess: timeseries.Mean(ewA),
		StdAccess:  timeseries.StdDev(ewA),
		MeanMiss:   timeseries.Mean(ewM),
		StdMiss:    timeseries.StdDev(ewM),
	}
	if period, ok := signal.IsPeriodic(maA, cfg.PeriodTolerance, periodOptions(cfg, 0)); ok {
		prof.Periodic, prof.PeriodMA = true, period
	}
	return prof
}

// TestProfilerMatchesBatchPipeline: streaming Stage 1 through the shared
// pipeline gives bit-identical profiles to the batch series formulation,
// for every application, at Table 1 geometry and at a ΔW that does not
// divide the sample count.
func TestProfilerMatchesBatchPipeline(t *testing.T) {
	odd := DefaultConfig()
	odd.W, odd.DW, odd.Alpha = 90, 35, 0.35
	for _, cfg := range []Config{DefaultConfig(), odd} {
		for i, app := range workload.AppNames() {
			samples := genSamples(t, app, uint64(40+i), 300, attack.Schedule{})
			want := batchProfile(t, app, samples, cfg)
			got, err := BuildProfile(app, samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s W=%d ΔW=%d: streamed profile\n %+v\nwant batch\n %+v", app, cfg.W, cfg.DW, got, want)
			}
		}
	}
}

// TestProfilerTooFewWindows: the minimum-window check counts samples the
// way the error message reports them.
func TestProfilerTooFewWindows(t *testing.T) {
	cfg := DefaultConfig()
	need := cfg.W + 19*cfg.DW
	samples := genSamples(t, workload.KMeans, 3, float64(need)*cfg.TPCM+1, attack.Schedule{})
	if _, err := BuildProfile("k", samples[:need-1], cfg); err == nil {
		t.Fatalf("profile from %d samples accepted, need %d", need-1, need)
	}
	if _, err := BuildProfile("k", samples[:need], cfg); err != nil {
		t.Fatalf("profile from exactly %d samples: %v", need, err)
	}
}
