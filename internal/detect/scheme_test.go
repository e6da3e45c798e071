package detect

import "testing"

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
		d, err := s.New(prof, DefaultConfig(), DefaultKSTestConfig(), nil)
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
		d, err := s.New(Profile{}, bad, badKS, nil)
		if err == nil || d != nil {
			t.Errorf("%s: New with invalid configs = (%v, %v), want (nil, error)", s.Name, d, err)
		}
	}
}
