package detect

import (
	"fmt"
	"strings"
)

// Scheme is one entry of the scheme registry: the single mapping from a
// scheme's names to its constructor that every plane (the sdsd wire
// handshake, the experiment grid, cloudsim scenarios, the CLIs) resolves
// through.
type Scheme struct {
	// Name is the report name, as the built detector's Name() returns it
	// ("SDS/B").
	Name string
	// Alias is the lower-case spelling of handshakes and flags ("sdsb").
	Alias string
	// Raw marks a scheme that consumes raw samples only: it implements no
	// WindowObserver and reads neither the Stage-1 profile nor Config.
	Raw bool
	// New builds the detector. Profile-driven schemes read prof and cfg;
	// raw ones read ks and opts.
	New func(prof Profile, cfg Config, ks KSTestConfig, opts ...KSTestOption) (Detector, error)
}

var schemes = []Scheme{
	{Name: "SDS", Alias: "sds", New: profiled(NewSDS)},
	{Name: "SDS/B", Alias: "sdsb", New: profiled(func(p Profile, c Config) (*SDSB, error) { return NewSDSB(p, c) })},
	{Name: "SDS/P", Alias: "sdsp", New: profiled(func(p Profile, c Config) (*SDSP, error) { return NewSDSP(p, c) })},
	{Name: "KStest", Alias: "kstest", Raw: true,
		New: func(_ Profile, _ Config, ks KSTestConfig, opts ...KSTestOption) (Detector, error) {
			d, err := NewKSTest(ks, opts...)
			if err != nil {
				return nil, err
			}
			return d, nil
		}},
	{Name: "CUSUM", Alias: "cusum", New: profiled(NewCUSUM)},
	{Name: "TimeFrag", Alias: "timefrag", New: profiled(NewTimeFrag)},
	{Name: "EWMAVar", Alias: "ewmavar", New: profiled(NewEWMAVar)},
}

// profiled adapts a profile-driven constructor to Scheme.New. The explicit
// nil keeps a failed build from returning a non-nil Detector that wraps a
// nil pointer.
func profiled[D Detector](build func(Profile, Config) (D, error)) func(Profile, Config, KSTestConfig, ...KSTestOption) (Detector, error) {
	return func(prof Profile, cfg Config, _ KSTestConfig, _ ...KSTestOption) (Detector, error) {
		d, err := build(prof, cfg)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// Schemes returns every registered scheme, in report order.
func Schemes() []Scheme {
	return append([]Scheme(nil), schemes...)
}

// LookupScheme resolves a scheme by its report name or its alias.
func LookupScheme(name string) (Scheme, error) {
	for _, s := range schemes {
		if name == s.Name || name == s.Alias {
			return s, nil
		}
	}
	aliases := make([]string, len(schemes))
	for i, s := range schemes {
		aliases[i] = s.Alias
	}
	return Scheme{}, fmt.Errorf("unknown scheme %q (want %s or %s)",
		name, strings.Join(aliases[:len(aliases)-1], ", "), aliases[len(aliases)-1])
}
