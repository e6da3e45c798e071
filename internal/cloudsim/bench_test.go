package cloudsim

import (
	"testing"

	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// clusterScenario is the parameterized cluster shape shared by the tracked
// benchmarks: every VM monitored, attackers running mixed campaigns with
// churn in the background and the full mitigation loop closed.
func clusterScenario(hosts int, seconds float64, fidelity string) Scenario {
	return Scenario{
		Name:                "bench",
		Seed:                1,
		Hosts:               hosts,
		VMsPerHost:          8,
		Seconds:             seconds,
		Fidelity:            fidelity,
		MonitorAll:          true,
		ProfileSeconds:      600,
		Attackers:           hosts/20 + 1,
		AttackKind:          AttackMixed,
		DwellMean:           200,
		ChurnArrivalsPerMin: float64(hosts) / 10,
		ChurnLifetimeMean:   180,
		Mitigation:          Mitigation{Policy: PolicyThrottleMigrate},
	}
}

// BenchmarkCloud1000x8x900Window is the tentpole scale target: 1000 hosts ×
// 8 VMs × 900 virtual seconds, all monitored, in single-digit seconds.
func BenchmarkCloud1000x8x900Window(b *testing.B) {
	sc := clusterScenario(1000, 900, FidelityWindow)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SamplesRepresented), "samples")
	}
}

// BenchmarkCloud20x8x300Window and ...Exact are the same small cluster at
// both fidelities — the direct measure of what the closed-form window
// substrate buys over per-sample lockstep.
func BenchmarkCloud20x8x300Window(b *testing.B) {
	sc := clusterScenario(20, 300, FidelityWindow)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloud20x8x300Exact(b *testing.B) {
	sc := clusterScenario(20, 300, FidelityExact)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBlockModel is a kmeans block model at the default ΔW block size.
func benchBlockModel() *blockModel {
	cfg := Scenario{Hosts: 1}.withDefaults().Detect
	return newBlockModel(workload.MustAppProfile(workload.KMeans), randx.New(99, 0), float64(cfg.DW)*cfg.TPCM, cfg.DW)
}

// BenchmarkBlockModelStep isolates the hot path of the window substrate:
// one closed-form ΔW-sample block of telemetry.
func BenchmarkBlockModelStep(b *testing.B) {
	bm := benchBlockModel()
	b.ReportAllocs()
	b.ResetTimer()
	var sa, sm float64
	for i := 0; i < b.N; i++ {
		a, m := bm.step(0.3, 0)
		sa += a
		sm += m
	}
	_, _ = sa, sm
}

// TestBlockModelStepZeroAlloc pins the benchmark's allocs/op at zero: the
// window substrate steps every VM of every host once per block.
func TestBlockModelStepZeroAlloc(t *testing.T) {
	bm := benchBlockModel()
	if allocs := testing.AllocsPerRun(1000, func() { bm.step(0.3, 0) }); allocs != 0 {
		t.Fatalf("blockModel.step: %.2f allocs per block, want 0", allocs)
	}
}
