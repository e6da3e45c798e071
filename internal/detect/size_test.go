package detect

import (
	"flag"
	"testing"
)

// maxStateBytes bounds what one detector's constructor may allocate. The
// §4.1 pipeline keeps W/gcd(W, ΔW) block means per counter (4 at Table 1's
// W = 200, ΔW = 50), not W raw samples, so every MA-based scheme and the
// Stage-1 profiler build in well under 1 KiB; a ring of W raw samples per
// counter alone would take 3.2 KB.
const maxStateBytes = 1024

// maxPeriodicSDSBytes bounds a periodic SDS (PeriodMA 12), whose SDS/P
// member adds W_P-value rings and a period estimator to SDS/B's state.
const maxPeriodicSDSBytes = 2200

// constructorBytes reports the heap bytes one call of build allocates.
func constructorBytes(t *testing.T, build func() error) int64 {
	t.Helper()
	if err := build(); err != nil {
		t.Fatal(err)
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			build()
		}
	}).AllocedBytesPerOp()
}

// TestDetectorStateSize pins the per-VM state of every profile-driven
// scheme on a non-periodic profile, and of the Stage-1 profiler, at
// maxStateBytes, and a periodic SDS at maxPeriodicSDSBytes: a fleet holds
// one of each per monitored VM. Standalone SDS/P is left out because it
// refuses a non-periodic profile; KStest keeps raw reference windows by
// design.
func TestDetectorStateSize(t *testing.T) {
	// testing.Benchmark runs each measurement for -test.benchtime, 1 s by
	// default; a fixed count of 200 constructions is plenty for a pin.
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("200x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Set(old) })

	cfg := DefaultConfig()
	prof := Profile{App: "flat", Windows: 100, MeanAccess: 1000, StdAccess: 100, MeanMiss: 100, StdMiss: 10}
	for _, s := range Schemes() {
		if s.Raw || s.Name == "SDS/P" {
			continue
		}
		n := constructorBytes(t, func() error {
			_, err := s.New(prof, cfg, KSTestConfig{})
			return err
		})
		t.Logf("%s: %d B", s.Name, n)
		if n > maxStateBytes {
			t.Errorf("%s allocates %d B at construction, want ≤ %d", s.Name, n, maxStateBytes)
		}
	}
	// A periodic SDS holds an SDS/P member next to its SDS/B. SDS feeds the
	// member window means only, so the member carries no averagers of its
	// own; its rings and period estimator fit in the rest.
	periodic := prof
	periodic.App, periodic.Periodic, periodic.PeriodMA = "periodic", true, 12
	n := constructorBytes(t, func() error {
		_, err := NewSDS(periodic, cfg)
		return err
	})
	t.Logf("SDS (periodic, PeriodMA 12): %d B", n)
	if n > maxPeriodicSDSBytes {
		t.Errorf("periodic SDS allocates %d B at construction, want ≤ %d", n, maxPeriodicSDSBytes)
	}
	n = constructorBytes(t, func() error {
		_, err := NewProfiler("flat", cfg)
		return err
	})
	t.Logf("Profiler: %d B", n)
	if n > maxStateBytes {
		t.Errorf("NewProfiler allocates %d B, want ≤ %d", n, maxStateBytes)
	}
}
