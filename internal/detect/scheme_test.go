package detect

import (
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/workload"
)

// TestSchemeRegistry pins the registry's contract: both spellings of every
// scheme resolve to it, the built detector reports the registered name,
// Raw marks exactly the schemes without a window-level entry point, and
// unknown names fail.
func TestSchemeRegistry(t *testing.T) {
	prof := steadyProfile(t, "facenet", 31)
	for _, s := range Schemes() {
		for _, name := range []string{s.Name, s.Alias} {
			got, err := LookupScheme(name)
			if err != nil {
				t.Fatalf("LookupScheme(%q): %v", name, err)
			}
			if got.Name != s.Name || got.Alias != s.Alias || got.Raw != s.Raw {
				t.Fatalf("LookupScheme(%q) = %s/%s, want %s/%s", name, got.Name, got.Alias, s.Name, s.Alias)
			}
		}
		d, err := s.New(prof, DefaultConfig(), DefaultKSTestConfig())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if d.Name() != s.Name {
			t.Errorf("%s builds a detector named %q", s.Name, d.Name())
		}
		if _, windowed := d.(WindowObserver); windowed == s.Raw {
			t.Errorf("%s: Raw = %v but WindowObserver implemented = %v", s.Name, s.Raw, windowed)
		}
	}
	for _, name := range []string{"", "bogus", "none", "Sds"} {
		if _, err := LookupScheme(name); err == nil {
			t.Errorf("LookupScheme(%q) resolved", name)
		}
	}
}

// TestSchemeConstructorErrors: a failed build returns a nil Detector, not
// a non-nil interface wrapping a nil pointer.
func TestSchemeConstructorErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.W = 0
	badKS := DefaultKSTestConfig()
	badKS.Alpha = 2
	for _, s := range Schemes() {
		d, err := s.New(Profile{}, bad, badKS)
		if err == nil || d != nil {
			t.Errorf("%s: New with invalid configs = (%v, %v), want (nil, error)", s.Name, d, err)
		}
	}
}

// TestCollecting pins the one quiesce signal every plane reads: it is true
// only while a KStest collects its reference, and false for nil and for
// every other registered scheme at every sample.
func TestCollecting(t *testing.T) {
	if Collecting(nil) {
		t.Fatal("Collecting(nil) = true")
	}
	prof := steadyProfile(t, workload.FaceNet, 31)
	// 40 s holds two KStest references (L_R = 30 s, W_R = 1 s).
	samples := genSamples(t, workload.FaceNet, 32, 40, attack.Schedule{})
	for _, s := range Schemes() {
		d, err := s.New(prof, DefaultConfig(), DefaultKSTestConfig())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		k, isKS := d.(*KSTest)
		collecting := 0
		for _, x := range samples {
			d.Observe(x)
			got := Collecting(d)
			if isKS && got != k.Collecting() {
				t.Fatalf("%s at t=%v: Collecting = %v, KSTest.Collecting = %v", s.Name, x.T, got, k.Collecting())
			}
			if got {
				collecting++
			}
		}
		switch {
		case isKS && collecting == 0:
			t.Errorf("%s: never collecting in %d samples", s.Name, len(samples))
		case !isKS && collecting != 0:
			t.Errorf("%s: collecting at %d samples, want none", s.Name, collecting)
		}
	}
}
