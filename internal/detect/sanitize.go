package detect

import (
	"math"

	"github.com/memdos/sds/internal/pcm"
)

// Sanitizer guards a detector against malformed PCM input: NaN, negative or
// physically impossible counters (counter wrap-around, tool restart, a
// flipped bit in transit) and out-of-order or duplicate timestamps
// (buffering glitches). Malformed samples are dropped and counted, never
// forwarded — a hypervisor-resident detector must not corrupt its state
// because the measurement tool hiccupped.
//
// Wrap any Detector:
//
//	d, _ := detect.NewSDS(prof, cfg)
//	s := detect.NewSanitizer(d)
//	s.Observe(sample) // forwards only well-formed samples
type Sanitizer struct {
	inner Detector

	lastT   float64
	started bool
	dropped uint64
}

var _ Detector = (*Sanitizer)(nil)

// maxAccessPerSample is the largest LLC access count one sample may carry.
// No core issues more than one LLC access per cycle, and T_PCM is at most
// 1 s, so a few GHz of cycles bound every honest sample; 1e10 leaves room
// for several cores behind one counter and still sits four orders of
// magnitude above every workload model (kmeans peaks near 6.1e5). Anything
// larger is a corrupt counter: one flipped exponent bit turns an access
// count of 2e5 into 3.6e159, which is finite and would otherwise hold an
// alarm for hundreds of seconds.
const maxAccessPerSample = 1e10

// NewSanitizer wraps a detector with input validation. A nil inner detector
// yields a Sanitizer that drops everything (still safe to use).
func NewSanitizer(inner Detector) *Sanitizer {
	return &Sanitizer{inner: inner}
}

// Name implements Detector.
func (s *Sanitizer) Name() string {
	if s.inner == nil {
		return "sanitizer"
	}
	return s.inner.Name()
}

// Observe implements Detector: well-formed samples are forwarded, malformed
// ones dropped and counted.
func (s *Sanitizer) Observe(sample pcm.Sample) {
	if s.inner == nil || !s.valid(sample) {
		s.dropped++
		return
	}
	s.lastT = sample.T
	s.started = true
	s.inner.Observe(sample)
}

func (s *Sanitizer) valid(sample pcm.Sample) bool {
	switch {
	// !(|x| <= MaxFloat64) rejects exactly NaN and ±Inf: one branch per
	// field instead of the IsNaN/IsInf pair on this per-sample path. The
	// access test folds the ceiling in: NaN, +Inf and over-ceiling counts
	// fail it alike, and -Inf falls to the sign test below. Miss needs no
	// ceiling of its own, since it may not exceed Access.
	case !(math.Abs(sample.T) <= math.MaxFloat64):
		return false
	case !(sample.Access <= maxAccessPerSample):
		return false
	case !(math.Abs(sample.Miss) <= math.MaxFloat64):
		return false
	case sample.Access < 0 || sample.Miss < 0:
		return false
	case sample.Miss > sample.Access:
		// More misses than accesses means a counter glitch.
		return false
	case s.started && sample.T <= s.lastT:
		return false
	}
	return true
}

// Alarmed implements Detector.
func (s *Sanitizer) Alarmed() bool {
	return s.inner != nil && s.inner.Alarmed()
}

// Alarms implements Detector.
func (s *Sanitizer) Alarms() []Alarm {
	if s.inner == nil {
		return nil
	}
	return s.inner.Alarms()
}

// AlarmCount implements Detector.
func (s *Sanitizer) AlarmCount() int {
	if s.inner == nil {
		return 0
	}
	return s.inner.AlarmCount()
}

// Dropped returns the number of malformed samples rejected so far.
func (s *Sanitizer) Dropped() uint64 { return s.dropped }
