package detect

import (
	"fmt"

	"github.com/memdos/sds/internal/pcm"
)

// Reprofiler implements the re-profiling workflow the paper sketches in its
// discussion (§6): applications may legitimately change behaviour (daily
// load patterns, new input data), which makes a Stage-1 profile stale and
// turns SDS's boundary violations into persistent false alarms. The paper
// proposes letting tenants request re-profiling; Reprofiler provides that
// operation without a detection gap:
//
//   - it continuously buffers the most recent profiling window of samples
//     while forwarding every sample to the active detector, and
//   - Reprofile() rebuilds the profile from that buffer — which the
//     operator asserts is attack-free, exactly like the original Stage 1 —
//     and swaps in a fresh detector atomically.
//
// StaleSuspected reports the heuristic the provider would alert the tenant
// on: an alarm that has persisted far longer than attacks are expected to
// survive mitigation.
type Reprofiler struct {
	cfg Config
	app string

	det *SDS

	buf      []pcm.Sample // ring of the most recent window
	pos      int
	filled   bool
	lastSeen float64

	// history holds the alarms of every detector generation retired by
	// Reprofile(). Alarm history must survive the swap: consumers track
	// emission progress as an index into Alarms() (the server's
	// emitted-count poll), so a swap that dropped old alarms would make
	// AlarmCount() regress below the consumer's index — suppressing every
	// later rising edge, or slicing out of range.
	history      []Alarm
	alarmedSince float64 // virtual time the current alarm started; -1 if none
	reprofiles   int
}

// NewReprofiler wraps a combined SDS detector built from the initial
// Stage-1 profile. bufferSeconds is the length of the rolling sample window
// a Reprofile() call rebuilds from; it must be long enough for BuildProfile
// (a few hundred seconds at T_PCM=0.01).
func NewReprofiler(app string, initial Profile, cfg Config, bufferSeconds float64) (*Reprofiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := pcm.SampleCount(bufferSeconds, cfg.TPCM)
	const minWindows = 20
	if need := cfg.W + (minWindows-1)*cfg.DW; n < need {
		return nil, fmt.Errorf("detect: reprofile buffer of %v s holds %d samples; need ≥ %d", bufferSeconds, n, need)
	}
	det, err := NewSDS(initial, cfg)
	if err != nil {
		return nil, err
	}
	return &Reprofiler{
		cfg:          cfg,
		app:          app,
		det:          det,
		buf:          make([]pcm.Sample, n),
		alarmedSince: -1,
	}, nil
}

var _ Detector = (*Reprofiler)(nil)

// Name implements Detector.
func (r *Reprofiler) Name() string { return r.det.Name() }

// Observe implements Detector.
func (r *Reprofiler) Observe(s pcm.Sample) {
	r.buf[r.pos] = s
	r.pos = (r.pos + 1) % len(r.buf)
	if r.pos == 0 {
		r.filled = true
	}
	r.lastSeen = s.T
	r.det.Observe(s)
	if r.det.Alarmed() {
		if r.alarmedSince < 0 {
			r.alarmedSince = s.T
		}
	} else {
		r.alarmedSince = -1
	}
}

// Alarmed implements Detector.
func (r *Reprofiler) Alarmed() bool { return r.det.Alarmed() }

// Alarms implements Detector: every alarm raised across all detector
// generations, retired ones included, in rising order.
func (r *Reprofiler) Alarms() []Alarm {
	cur := r.det.Alarms()
	if len(r.history) == 0 {
		return cur
	}
	out := make([]Alarm, 0, len(r.history)+len(cur))
	out = append(out, r.history...)
	return append(out, cur...)
}

// AlarmCount implements Detector. It is monotone across Reprofile()
// calls: retired generations keep contributing their alarms.
func (r *Reprofiler) AlarmCount() int { return len(r.history) + r.det.AlarmCount() }

// Reprofiles returns how many times the profile has been rebuilt.
func (r *Reprofiler) Reprofiles() int { return r.reprofiles }

// Profile returns the profile of the active detector.
func (r *Reprofiler) Profile() Profile { return r.det.Boundary().Profile() }

// StaleSuspected reports whether the current alarm has persisted for at
// least the given duration — the signal a provider would surface to the
// tenant as "either you are under a very long attack, or your application
// changed and needs re-profiling" (§6).
func (r *Reprofiler) StaleSuspected(persistSeconds float64) bool {
	return r.alarmedSince >= 0 && r.lastSeen-r.alarmedSince >= persistSeconds
}

// Reprofile rebuilds the Stage-1 profile from the buffered window and swaps
// in a fresh detector. The caller (tenant/operator) asserts the buffered
// window is attack-free, exactly as for the original profiling run. It
// fails if the buffer has not filled yet.
func (r *Reprofiler) Reprofile() (Profile, error) {
	if !r.filled {
		return Profile{}, fmt.Errorf("detect: reprofile buffer not full yet (%d/%d samples)", r.pos, len(r.buf))
	}
	window := make([]pcm.Sample, len(r.buf))
	copy(window, r.buf[r.pos:])
	copy(window[len(r.buf)-r.pos:], r.buf[:r.pos])

	prof, err := BuildProfile(r.app, window, r.cfg)
	if err != nil {
		return Profile{}, err
	}
	det, err := NewSDS(prof, r.cfg)
	if err != nil {
		return Profile{}, err
	}
	// Retire the old generation's alarms into the history before the swap
	// (Alarms() already hands back a copy, safe to keep).
	r.history = append(r.history, r.det.Alarms()...)
	r.det = det
	r.alarmedSince = -1
	r.reprofiles++
	return prof, nil
}
