// Package server implements the provider-side deployment shape of the
// paper's system (§4: "SDS … will be deployed in the hypervisor on each
// server by the provider"): a concurrent multi-VM detection service that
// ingests one `t,access,miss` PCM counter stream per protected VM and runs
// the profile→detect lifecycle on each.
//
// The package has three layers:
//
//   - Session: the single-stream lifecycle — accumulate the Stage-1
//     profiling window, build the profile and detector, then monitor. This
//     is the code path cmd/detectd wraps for stdin streams and Server runs
//     once per connection.
//   - Server: accepts many VM streams at once over TCP and/or unix sockets
//     (plus an in-process API), with bounded per-connection buffering,
//     backpressure, graceful drain, and a /healthz + /metricsz ops surface.
//   - WriteSimulatedStream: the recorded-telemetry replay path shared by
//     `detectd -record` and the sdsload load generator.
package server

import (
	"fmt"
	"sync"

	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
)

// StreamSpec configures one VM stream's detection lifecycle.
type StreamSpec struct {
	// VM identifies the protected VM (ops surface and session-table key).
	VM string
	// App names the profiled application.
	App string
	// Scheme selects the detector by any name detect.LookupScheme
	// resolves (sds, sdsb, sdsp, kstest, cusum, timefrag or ewmavar).
	Scheme string
	// ProfileSeconds is the leading stream span used as the Stage-1
	// profile; the VM must be known attack-free during it.
	ProfileSeconds float64
	// Config carries the SDS parameters (zero value: DefaultConfig).
	Config detect.Config
	// KSConfig carries the KStest baseline parameters (zero value:
	// DefaultKSTestConfig). Only consulted for the raw-sample KStest.
	KSConfig detect.KSTestConfig
	// OnProfile, when set, observes the completed Stage-1 profile and the
	// number of samples it was built from.
	OnProfile func(p detect.Profile, samples int)
	// OnAlarm, when set, observes every alarm as it fires; a non-nil
	// return poisons the session (subsequent Observes fail).
	OnAlarm func(a detect.Alarm) error
	// KSOptions is passed through to the KStest constructor (tracing hooks
	// in tests).
	KSOptions []detect.KSTestOption
}

// normalize fills defaults, validates, and resolves the scheme.
func (spec *StreamSpec) normalize() (detect.Scheme, error) {
	if spec.App == "" {
		spec.App = "monitored-vm"
	}
	if spec.Scheme == "" {
		spec.Scheme = "sds"
	}
	scheme, err := detect.LookupScheme(spec.Scheme)
	if err != nil {
		return detect.Scheme{}, err
	}
	if spec.ProfileSeconds <= 0 {
		return detect.Scheme{}, fmt.Errorf("profile window must be positive, got %v", spec.ProfileSeconds)
	}
	if spec.Config == (detect.Config{}) {
		spec.Config = detect.DefaultConfig()
	}
	if err := spec.Config.Validate(); err != nil {
		return detect.Scheme{}, err
	}
	if spec.KSConfig == (detect.KSTestConfig{}) {
		spec.KSConfig = detect.DefaultKSTestConfig()
	}
	return scheme, nil
}

// SessionStats is a point-in-time snapshot of one stream's state.
type SessionStats struct {
	VM, App, Scheme string
	// Profiling reports that the Stage-1 window is still accumulating.
	Profiling bool
	// ProfileSamples is the number of samples in the Stage-1 window (its
	// current fill while profiling, its final size afterwards).
	ProfileSamples int
	// Monitored counts Stage-2 samples ingested (malformed ones included —
	// they are counted in Dropped too).
	Monitored uint64
	// Dropped counts malformed Stage-2 samples the sanitizer rejected.
	Dropped uint64
	// Alarms is the number of alarms raised; Alarmed the current state.
	Alarms  int
	Alarmed bool
	// LastT is the virtual time of the newest ingested sample.
	LastT float64
}

// Ingested returns the total samples consumed across both stages.
func (st SessionStats) Ingested() uint64 {
	return uint64(st.ProfileSamples) + st.Monitored
}

// Session runs the profile→detect lifecycle over one VM's sample stream.
// The first ProfileSeconds of stream time form the Stage-1 profile; the
// sample at the window boundary starts the monitored stage (it is NOT part
// of the profile). All methods are safe for concurrent use, but samples
// must be fed by a single goroutine in time order.
type Session struct {
	spec StreamSpec

	mu           sync.Mutex
	profiling    bool
	cutoff       float64
	profiler     *detect.Profiler
	profileCount int
	profile      detect.Profile
	// det is the detector, built at NewSession for a raw-sample scheme
	// (which then sees the Stage-1 samples too) and at the profile
	// boundary otherwise.
	det       detect.Detector
	guard     *detect.Sanitizer
	monitored uint64
	emitted   int
	lastT     float64
	err       error
}

// NewSession validates the spec and returns a session in the profiling
// stage.
func NewSession(spec StreamSpec) (*Session, error) {
	scheme, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	profiler, err := detect.NewProfiler(spec.App, spec.Config)
	if err != nil {
		return nil, err
	}
	s := &Session{spec: spec, profiling: true, profiler: profiler}
	if scheme.Raw {
		// Seed the baseline from the attack-free Stage-1 window. Without
		// this the detector would collect its first reference from the
		// monitored tail — a stream attacked right after profiling would
		// teach KStest an under-attack baseline and it would never alarm.
		if s.det, err = scheme.New(detect.Profile{}, spec.Config, spec.KSConfig, spec.KSOptions...); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Name returns the scheme name.
func (s *Session) Name() string { return s.spec.Scheme }

// VM returns the VM identifier.
func (s *Session) VM() string { return s.spec.VM }

// Observe ingests the next stream sample. During Stage 1 samples accumulate
// in the profiling window; the first sample at or past the window boundary
// triggers profile construction and becomes the first monitored sample.
func (s *Session) Observe(smp pcm.Sample) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.observeLocked(smp); err != nil {
		return err
	}
	return s.emitLocked()
}

// ObserveBatch ingests a decoded frame under a single lock acquisition,
// with one alarm-emission pass at the end instead of one per sample — the
// binary ingest pipeline's hot path. It returns how many samples were
// consumed before any error.
func (s *Session) ObserveBatch(batch []pcm.Sample) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, smp := range batch {
		if s.err != nil {
			return i, s.err
		}
		if err := s.observeLocked(smp); err != nil {
			return i, err
		}
	}
	return len(batch), s.emitLocked()
}

// observeLocked advances the lifecycle for one sample. Alarm emission is
// left to the caller's trailing emitLocked so batched callers pay for it
// once per frame.
func (s *Session) observeLocked(smp pcm.Sample) error {
	s.lastT = smp.T
	if s.profiling {
		if s.profileCount == 0 {
			s.cutoff = smp.T + s.spec.ProfileSeconds
		}
		if smp.T < s.cutoff {
			s.profiler.Observe(smp)
			if s.det != nil {
				s.det.Observe(smp)
			}
			s.profileCount++
			return nil
		}
		// The boundary sample starts the monitored stage: a window of
		// ProfileSeconds starting at the first sample ends strictly
		// before firstSample.T + ProfileSeconds.
		if err := s.finishProfileLocked(); err != nil {
			s.err = err
			return err
		}
	}
	s.monitored++
	s.guard.Observe(smp)
	return nil
}

// finishProfileLocked builds the profile, and the detector unless Stage 1
// already fed it, at the Stage-1 boundary.
func (s *Session) finishProfileLocked() error {
	prof, err := s.profiler.Profile()
	if err != nil {
		return err
	}
	if s.det == nil {
		scheme, err := detect.LookupScheme(s.spec.Scheme)
		if err != nil {
			return err
		}
		if s.det, err = scheme.New(prof, s.spec.Config, s.spec.KSConfig, s.spec.KSOptions...); err != nil {
			return err
		}
	}
	s.profile = prof
	s.guard = detect.NewSanitizer(s.det)
	s.profiling = false
	s.profiler = nil
	if s.spec.OnProfile != nil {
		s.spec.OnProfile(prof, s.profileCount)
	}
	// Surface any alarms a raw-sample scheme raised on the Stage-1 samples
	// (a poisoned "attack-free" window should be visible, not silently
	// absorbed).
	return s.emitLocked()
}

// emitLocked forwards alarms raised since the last emission to OnAlarm.
// The count poll keeps the per-sample path allocation-free: Alarms() copies
// the slice, so it only runs when something new actually fired.
func (s *Session) emitLocked() error {
	if s.guard == nil || s.guard.AlarmCount() == s.emitted {
		return nil
	}
	alarms := s.guard.Alarms()
	for _, a := range alarms[s.emitted:] {
		s.emitted++
		if s.spec.OnAlarm != nil {
			if err := s.spec.OnAlarm(a); err != nil {
				s.err = err
				return err
			}
		}
	}
	return nil
}

// Profiling reports whether the session is still in Stage 1.
func (s *Session) Profiling() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.profiling
}

// Profile returns the Stage-1 profile once built.
func (s *Session) Profile() (detect.Profile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.profile, !s.profiling
}

// Alarmed reports the current alarm state (false while profiling).
func (s *Session) Alarmed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.guard != nil && s.guard.Alarmed()
}

// Alarms returns a copy of every alarm raised so far.
func (s *Session) Alarms() []detect.Alarm {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.guard == nil {
		return nil
	}
	return s.guard.Alarms()
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{
		VM:             s.spec.VM,
		App:            s.spec.App,
		Scheme:         s.spec.Scheme,
		Profiling:      s.profiling,
		ProfileSamples: s.profileCount,
		Monitored:      s.monitored,
		LastT:          s.lastT,
	}
	if s.guard != nil {
		st.Dropped = s.guard.Dropped()
		st.Alarms = s.emitted
		st.Alarmed = s.guard.Alarmed()
	}
	return st
}

// Close finalizes the stream. It returns the final stats, and an error when
// the stream ended before the Stage-1 window completed.
func (s *Session) Close() (SessionStats, error) {
	st := s.Stats()
	if st.Profiling {
		return st, fmt.Errorf("stream ended during the %g s profiling window (%d samples)",
			s.spec.ProfileSeconds, st.ProfileSamples)
	}
	return st, nil
}
