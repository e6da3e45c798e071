package detect

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// countingDetector records observations for sanitizer tests.
type countingDetector struct {
	observed []pcm.Sample
	alarmed  bool
}

func (c *countingDetector) Name() string         { return "counting" }
func (c *countingDetector) Observe(s pcm.Sample) { c.observed = append(c.observed, s) }
func (c *countingDetector) Alarmed() bool        { return c.alarmed }
func (c *countingDetector) Alarms() []Alarm      { return nil }
func (c *countingDetector) AlarmCount() int      { return 0 }

func TestSanitizerDropsMalformedSamples(t *testing.T) {
	inner := &countingDetector{}
	s := NewSanitizer(inner)
	good := []pcm.Sample{
		{T: 0.01, Access: 100, Miss: 10},
		{T: 0.02, Access: 120, Miss: 12},
		{T: 0.03, Access: 0, Miss: 0}, // zero counters are legitimate (idle)
	}
	bad := []pcm.Sample{
		{T: math.NaN(), Access: 100, Miss: 10},
		{T: 0.025, Access: math.NaN(), Miss: 10},
		{T: 0.026, Access: 100, Miss: math.Inf(1)},
		{T: 0.027, Access: -5, Miss: 1},
		{T: 0.028, Access: 10, Miss: 20}, // misses exceed accesses
		{T: 0.029, Access: 2 * maxAccessPerSample, Miss: 10},
	}
	s.Observe(good[0])
	for _, b := range bad {
		s.Observe(b)
	}
	s.Observe(good[1])
	s.Observe(pcm.Sample{T: 0.02, Access: 100, Miss: 10})  // duplicate timestamp
	s.Observe(pcm.Sample{T: 0.015, Access: 100, Miss: 10}) // goes backward
	s.Observe(good[2])

	if got, want := len(inner.observed), 3; got != want {
		t.Fatalf("inner observed %d samples, want %d: %+v", got, want, inner.observed)
	}
	if got := s.Dropped(); got != 8 {
		t.Fatalf("dropped = %d, want 8", got)
	}
}

func TestSanitizerForwardsAlarmState(t *testing.T) {
	inner := &countingDetector{alarmed: true}
	s := NewSanitizer(inner)
	if !s.Alarmed() {
		t.Fatal("alarm state not forwarded")
	}
	if s.Name() != "counting" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestSanitizerNilInner(t *testing.T) {
	s := NewSanitizer(nil)
	s.Observe(pcm.Sample{T: 1, Access: 10, Miss: 1})
	if s.Alarmed() || s.Alarms() != nil {
		t.Fatal("nil-inner sanitizer reported state")
	}
	if s.Dropped() != 1 {
		t.Fatalf("dropped = %d", s.Dropped())
	}
	if s.Name() != "sanitizer" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestSanitizerPropertyNeverForwardsInvalid(t *testing.T) {
	inner := &countingDetector{}
	s := NewSanitizer(inner)
	f := func(tRaw, aRaw, mRaw int16, nanT, nanA bool) bool {
		sample := pcm.Sample{
			T:      float64(tRaw),
			Access: float64(aRaw),
			Miss:   float64(mRaw),
		}
		if nanT {
			sample.T = math.NaN()
		}
		if nanA {
			sample.Access = math.NaN()
		}
		before := len(inner.observed)
		s.Observe(sample)
		if len(inner.observed) == before {
			return true // dropped
		}
		fwd := inner.observed[len(inner.observed)-1]
		return !math.IsNaN(fwd.T) && !math.IsNaN(fwd.Access) &&
			fwd.Access >= 0 && fwd.Miss >= 0 && fwd.Miss <= fwd.Access
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSanitizedSDSStillDetects(t *testing.T) {
	// End to end: a detector behind the sanitizer still catches the attack
	// when fed a stream polluted with garbage samples.
	prof := steadyProfile(t, workload.KMeans, 120)
	inner, err := NewSDS(prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSanitizer(inner)
	r := randx.New(121, 122)
	samples := genSamples(t, workload.KMeans, 121, 600, attack.Schedule{Kind: attack.BusLock, Start: 300, Ramp: 10})
	for _, smp := range samples {
		if r.Bool(0.01) { // inject 1% garbage
			s.Observe(pcm.Sample{T: smp.T, Access: math.NaN(), Miss: -1})
		}
		s.Observe(smp)
	}
	if !s.Alarmed() {
		t.Fatal("sanitized SDS missed the attack")
	}
	if s.Dropped() == 0 {
		t.Fatal("no garbage was dropped")
	}
}
