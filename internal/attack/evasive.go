// Evasive attacker strategies: adaptive intensity envelopes that try to
// stay below a detection scheme's trigger while still inflicting damage.
//
// The paper evaluates its schemes against steady attackers only; real
// adversaries adapt. Time-fragmented attacks reset consecutive-violation
// streaks (Prada et al., arXiv 1904.11268), slow onset ramps starve
// self-calibrating detectors (CacheShield, arXiv 1709.01795), and a
// coordinated group can keep each member intermittent while their
// superposition stays continuous. Each strategy here is a pure, allocation-
// free modulation of a Schedule's intensity envelope; the experiment layer
// sweeps them against every scheme and scores the largest intensity that
// stays undetected (the scheme's evasion margin).
package attack

import (
	"fmt"
	"math"

	"github.com/memdos/sds/internal/signal"
)

// Strategy modulates a Schedule's intensity over time. Implementations are
// pure functions of the time offset: equal inputs give equal outputs, no
// internal state, no allocation — Schedule.Intensity sits on the per-sample
// hot path of every execution plane.
type Strategy interface {
	// Name returns the strategy name used in reports and CLI flags.
	Name() string
	// Factor returns the multiplicative intensity modulation at rel
	// seconds after the schedule's start. Values are clamped to [0, 1] by
	// Schedule.Intensity; rel < 0 must return 0.
	Factor(rel float64) float64
	// MeanFactor returns the mean of Factor over [rel0, rel1] — exact for
	// every built-in strategy — which is what lets the window-fidelity
	// cloud simulator integrate strategy-modulated schedules in closed
	// form. rel1 ≤ rel0 returns Factor(max(rel0, 0)).
	MeanFactor(rel0, rel1 float64) float64
}

// Strategy names accepted by NamedStrategy, scenario files and the
// -attack-strategy CLI flags. StrategySteady is the zero value: no
// modulation, the pre-existing ramp-and-plateau schedule.
const (
	StrategySteady         = "steady"
	StrategyDutyCycle      = "duty-cycle"
	StrategyPeriodMimic    = "period-mimic"
	StrategySlowRamp       = "slow-ramp"
	StrategyCoordinated    = "coordinated"
	StrategyReprofileTimed = "reprofile-timed"
)

// StrategyNames lists every named strategy in report order.
func StrategyNames() []string {
	return []string{StrategySteady, StrategyDutyCycle, StrategyPeriodMimic,
		StrategySlowRamp, StrategyCoordinated, StrategyReprofileTimed}
}

// sanitizeFactor maps a strategy output into [0, 1]: NaN and negative
// values become 0, values above 1 become 1. Degenerate knobs (zero-duration
// bursts, zero-length cycles) must never leak NaN into the contention
// environment a victim model consumes.
func sanitizeFactor(f float64) float64 {
	switch {
	case math.IsNaN(f) || f <= 0:
		return 0
	case f > 1:
		return 1
	}
	return f
}

// DutyCycle attacks in on/off bursts: full intensity for On seconds, quiet
// for Off seconds, repeating. Phase shifts the cycle start (0 ≤ Phase <
// On+Off begins mid-cycle). Tuned right — see DutyCycleBelowStreak — the
// bursts sit just below a boundary scheme's H_C consecutive-violation
// streak, so SDS/B's counter resets on every pause while density-based
// schemes (TimeFrag) still accumulate the suspicious windows.
//
// Degenerate knobs are defined, never NaN: On ≤ 0 never attacks, On > 0
// with Off ≤ 0 always attacks.
type DutyCycle struct {
	On, Off float64
	Phase   float64
}

var _ Strategy = DutyCycle{}

// Name implements Strategy.
func (d DutyCycle) Name() string { return StrategyDutyCycle }

// Factor implements Strategy.
func (d DutyCycle) Factor(rel float64) float64 {
	if rel < 0 || d.On <= 0 {
		return 0
	}
	if d.Off <= 0 {
		return 1
	}
	period := d.On + d.Off
	pos := math.Mod(rel+d.Phase, period)
	if pos < 0 {
		pos += period
	}
	if pos < d.On {
		return 1
	}
	return 0
}

// onTime returns the cumulative on-time of the cycle over [0, rel] for a
// non-degenerate duty cycle (On > 0, Off > 0), before the phase shift.
func (d DutyCycle) onTime(rel float64) float64 {
	if rel <= 0 {
		return 0
	}
	period := d.On + d.Off
	cycles := math.Floor(rel / period)
	return cycles*d.On + math.Min(rel-cycles*period, d.On)
}

// MeanFactor implements Strategy: the exact on-time fraction of [rel0, rel1].
func (d DutyCycle) MeanFactor(rel0, rel1 float64) float64 {
	if rel1 <= rel0 {
		return d.Factor(math.Max(rel0, 0))
	}
	if d.On <= 0 {
		return 0
	}
	if d.Off <= 0 {
		return sanitizeFactor(positiveSpanFraction(rel0, rel1))
	}
	lo, hi := math.Max(rel0, 0), rel1
	if hi <= lo {
		return 0
	}
	on := d.onTime(hi+d.Phase) - d.onTime(lo+d.Phase)
	return sanitizeFactor(on / (rel1 - rel0))
}

// positiveSpanFraction returns the fraction of [rel0, rel1] at rel ≥ 0 —
// the mean of an always-on strategy whose factor is 0 before the start.
func positiveSpanFraction(rel0, rel1 float64) float64 {
	lo := math.Max(rel0, 0)
	if rel1 <= lo {
		return 0
	}
	return (rel1 - lo) / (rel1 - rel0)
}

// streakGuardWindows pads the H_C budget of DutyCycleBelowStreak for the
// two ways a burst outlives itself in the violation streak: the moving
// average smears it across the W/ΔW ≈ 4 windows that overlap it (Table 1
// geometry), and after the MA recovers the EWMA decays back into the band
// from a deep excursion over ≈ ln(band/excursion)/ln(1−α) ≈ 11 windows at
// α=0.2 and a full bus-locking drop. The guard keeps burst + smear + decay
// below H_C.
const streakGuardWindows = 16

// DutyCycleBelowStreak returns a DutyCycle tuned against a boundary scheme
// with the given MA window step (ΔW·T_PCM seconds) and consecutive-
// violation threshold hc: the on-burst covers at most hc−1−guard window
// boundaries (never fewer than one), and the pause is long enough for the
// EWMA to re-enter the band and reset the streak. By construction no burst
// can produce hc consecutive out-of-band windows from burst overlap alone
// (the property test in evasive_test.go pins this over seed grids).
func DutyCycleBelowStreak(windowStep float64, hc int) DutyCycle {
	if windowStep <= 0 {
		windowStep = 0.5 // Table 1 geometry: ΔW·T_PCM = 50·0.01
	}
	onWindows := hc - 1 - streakGuardWindows
	if onWindows < 1 {
		onWindows = 1
	}
	on := float64(onWindows) * windowStep
	off := math.Max(on, float64(streakGuardWindows)*windowStep)
	return DutyCycle{On: on, Off: off}
}

// SlowRamp grows the intensity linearly from 0 to full over Rise seconds —
// far slower than the schedule's own probe ramp. Each MA window adds at most
// windowStep/Rise of full intensity, so no single window jumps the profiled
// normal range by itself and a boundary scheme whose band absorbs the final
// plateau (peak effect within k·σ_E, the Chebyshev per-window bound's
// operating regime) never sees a violation streak at all. Accumulating
// schemes (CUSUM) integrate the persistent sub-band drift and trip anyway.
// Rise ≤ 0 degenerates to full intensity immediately.
type SlowRamp struct {
	Rise float64
}

var _ Strategy = SlowRamp{}

// Name implements Strategy.
func (s SlowRamp) Name() string { return StrategySlowRamp }

// Factor implements Strategy.
func (s SlowRamp) Factor(rel float64) float64 {
	if rel < 0 {
		return 0
	}
	if s.Rise <= 0 || rel >= s.Rise {
		return 1
	}
	return rel / s.Rise
}

// MeanFactor implements Strategy: exact trapezoid of the clamped ramp.
func (s SlowRamp) MeanFactor(rel0, rel1 float64) float64 {
	if rel1 <= rel0 {
		return s.Factor(math.Max(rel0, 0))
	}
	if s.Rise <= 0 {
		return sanitizeFactor(positiveSpanFraction(rel0, rel1))
	}
	lo := math.Max(rel0, 0)
	if rel1 <= lo {
		return 0
	}
	var area float64
	if re := math.Min(rel1, s.Rise); lo < re {
		area += (lo + re) / 2 / s.Rise * (re - lo)
	}
	if rel1 > s.Rise {
		area += rel1 - math.Max(lo, s.Rise)
	}
	return sanitizeFactor(area / (rel1 - rel0))
}

// PeriodMimic phase-locks duty-cycled bursts to the victim's period so the
// period channel stays quiet: the victim's observed period stretches with
// the *mean* attack intensity (work-term stretch), so bursts covering a Duty
// fraction of every Cycles victim periods keep the average stretch at
// Duty·PeriodStretch — below SDS/P's deviation tolerance for small Duty —
// while each burst still hits at the same cycle position. The burst length
// additionally respects the boundary scheme's streak budget when built by
// MimicVictim. Non-positive knobs degenerate to a silent strategy (never
// NaN).
type PeriodMimic struct {
	// Period is the victim's (estimated) period in seconds.
	Period float64
	// Duty is the attacked fraction of each burst cycle (0..1).
	Duty float64
	// Cycles is how many victim periods one on+off burst cycle spans.
	Cycles int
	// Phase shifts the burst within the cycle (seconds).
	Phase float64
	// Estimated reports whether Period came from a real DFT–ACF estimate
	// of victim telemetry (MimicVictim) or a fallback default.
	Estimated bool
}

var _ Strategy = PeriodMimic{}

// Name implements Strategy.
func (p PeriodMimic) Name() string { return StrategyPeriodMimic }

// cycle returns the equivalent duty cycle; ok is false for degenerate knobs.
func (p PeriodMimic) cycle() (DutyCycle, bool) {
	if p.Period <= 0 || p.Duty <= 0 || p.Cycles <= 0 {
		return DutyCycle{}, false
	}
	duty := math.Min(p.Duty, 1)
	span := float64(p.Cycles) * p.Period
	return DutyCycle{On: duty * span, Off: (1 - duty) * span, Phase: p.Phase}, true
}

// Factor implements Strategy.
func (p PeriodMimic) Factor(rel float64) float64 {
	c, ok := p.cycle()
	if !ok {
		return 0
	}
	return c.Factor(rel)
}

// MeanFactor implements Strategy.
func (p PeriodMimic) MeanFactor(rel0, rel1 float64) float64 {
	c, ok := p.cycle()
	if !ok {
		return 0
	}
	return c.MeanFactor(rel0, rel1)
}

// fallbackMimicPeriod stands in for the victim's period when no periodic
// structure is estimable (non-periodic victims): the mimic degenerates to a
// plain duty cycle at a phase-alternation-scale period.
const fallbackMimicPeriod = 30.0

// MimicVictim builds a PeriodMimic from a victim's attack-free moving-
// average telemetry trace: ma holds MA values spaced maStep seconds apart
// (the same series SDS/P consumes), and the period is estimated with the
// shared DFT–ACF estimator. When no period is detectable the mimic falls
// back to fallbackMimicPeriod with Estimated false. duty is the attacked
// fraction; the burst span is capped so one burst covers at most
// hc−1−guard MA window boundaries of the boundary scheme's geometry
// (windowStep seconds apart) — a mimic that evades the period channel but
// trips the streak channel would be pointless.
func MimicVictim(ma []float64, maStep float64, duty float64, windowStep float64, hc int) PeriodMimic {
	period, estimated := EstimateVictimPeriod(ma, maStep)
	if duty <= 0 || duty > 1 {
		duty = 0.3
	}
	m := PeriodMimic{Period: period, Duty: duty, Cycles: 1, Estimated: estimated}
	capMimicDuty(&m, windowStep, hc)
	return m
}

// capMimicDuty shrinks the mimic's duty so one burst stays inside the
// boundary scheme's streak budget. The cycle count stays at one victim
// period: bursting every N > 1 periods would plant a spectral line at
// N·period that the DFT–ACF estimator latches onto, turning the mimic into
// exactly the period anomaly it is built to avoid.
func capMimicDuty(m *PeriodMimic, windowStep float64, hc int) {
	if m.Period <= 0 {
		return
	}
	if budget := DutyCycleBelowStreak(windowStep, hc).On; m.Duty*m.Period > budget {
		m.Duty = budget / m.Period
	}
}

// EstimateVictimPeriod runs the shared DFT–ACF period estimator over a
// victim MA trace (values maStep seconds apart) and returns the period in
// seconds. ok is false — and the fallback period returned — when the trace
// has no detectable periodic structure.
func EstimateVictimPeriod(ma []float64, maStep float64) (seconds float64, ok bool) {
	if len(ma) < 8 || maStep <= 0 {
		return fallbackMimicPeriod, false
	}
	est, found := signal.EstimatePeriod(ma, signal.PeriodOptions{})
	if !found || est.Period <= 0 {
		return fallbackMimicPeriod, false
	}
	return float64(est.Period) * maStep, true
}

// Coordinated is the superposition of K phase-offset duty-cycled attackers:
// member i bursts for Burst seconds once per K·Burst cycle, offset by
// i·Burst, so exactly one member is active at any instant — the victim
// experiences continuous full-intensity contention while every individual
// attacker stays intermittent (and individually below the streak budget
// when built by NewCoordinated). Factor is the superposition min(1, Σ
// member factors); with the tiling construction the sum never exceeds 1,
// which the composition property test pins.
type Coordinated struct {
	members []DutyCycle
}

var _ Strategy = Coordinated{}

// NewCoordinated returns a K-member coordinated strategy whose members
// burst for burst seconds in rotation. K < 1 or burst ≤ 0 degenerate to a
// memberless (silent) strategy.
func NewCoordinated(k int, burst float64) Coordinated {
	if k < 1 || burst <= 0 {
		return Coordinated{}
	}
	members := make([]DutyCycle, k)
	for i := range members {
		members[i] = DutyCycle{
			On:    burst,
			Off:   float64(k-1) * burst,
			Phase: -float64(i) * burst,
		}
	}
	return Coordinated{members: members}
}

// CoordinatedBelowStreak returns a NewCoordinated whose member bursts each
// sit below the (windowStep, hc) streak budget — each individual attacker
// evades the boundary scheme while the group's superposition is continuous.
func CoordinatedBelowStreak(k int, windowStep float64, hc int) Coordinated {
	return NewCoordinated(k, DutyCycleBelowStreak(windowStep, hc).On)
}

// Members returns the individual attackers' strategies (copies).
func (c Coordinated) Members() []DutyCycle {
	out := make([]DutyCycle, len(c.members))
	copy(out, c.members)
	return out
}

// Name implements Strategy.
func (c Coordinated) Name() string { return StrategyCoordinated }

// Factor implements Strategy: the clamped superposition of the members.
func (c Coordinated) Factor(rel float64) float64 {
	sum := 0.0
	for _, m := range c.members {
		sum += m.Factor(rel)
	}
	return sanitizeFactor(sum)
}

// MeanFactor implements Strategy: the clamped sum of member means — exact
// whenever member bursts do not overlap, which the NewCoordinated tiling
// guarantees.
func (c Coordinated) MeanFactor(rel0, rel1 float64) float64 {
	sum := 0.0
	for _, m := range c.members {
		sum += m.MeanFactor(rel0, rel1)
	}
	return sanitizeFactor(sum)
}

// ReprofileTimed attacks at full intensity except during recurring
// re-profiling windows: the tenant rebuilds the detection profile every
// Every seconds from a rolling telemetry buffer, and the attacker quiesces
// for the Quiet seconds leading into each rebuild. The operator sees no
// active alarm at swap time (nobody re-profiles mid-alarm), yet the buffer
// still contains the attacked spans between quiet windows — the rebuilt
// μ/σ absorb them, the band widens, and the ongoing attack becomes the new
// normal. Inner optionally modulates the attacking spans (nil = full
// intensity). Quiet ≥ Every quiesces permanently; Every ≤ 0 never
// quiesces.
type ReprofileTimed struct {
	// Every is the victim's re-profiling interval in seconds.
	Every float64
	// Quiet is the quiesced span before each rebuild (seconds).
	Quiet float64
	// Offset shifts the first rebuild time (seconds; rebuilds at
	// Offset, Offset+Every, …).
	Offset float64
	// Inner modulates the non-quiesced spans (nil = full intensity).
	Inner Strategy
}

var _ Strategy = ReprofileTimed{}

// Name implements Strategy.
func (r ReprofileTimed) Name() string { return StrategyReprofileTimed }

// knobs returns the sanitized (every, quiet, offset) cycle: non-finite or
// non-positive Every/Quiet disable quiescing (ok false), a non-finite
// Offset resets to 0. NaN knobs must neither leak into factors nor hang
// the window walk (NaN compares false against every loop bound).
func (r ReprofileTimed) knobs() (every, quiet, offset float64, ok bool) {
	every, quiet, offset = r.Every, r.Quiet, r.Offset
	if !finitePositive(every) || !(quiet > 0) {
		return 0, 0, 0, false
	}
	if math.IsNaN(offset) || math.IsInf(offset, 0) {
		offset = 0
	}
	return every, quiet, offset, true
}

// finitePositive reports v > 0 and finite (false for NaN and ±Inf).
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// quiet reports whether rel falls inside a quiesced window — the Quiet
// seconds before each rebuild at Offset + k·Every.
func (r ReprofileTimed) quiet(rel float64) bool {
	every, quiet, offset, ok := r.knobs()
	if !ok {
		return false
	}
	if quiet >= every {
		return true
	}
	pos := math.Mod(rel-offset, every)
	if pos < 0 {
		pos += every
	}
	return pos >= every-quiet
}

// Factor implements Strategy.
func (r ReprofileTimed) Factor(rel float64) float64 {
	if rel < 0 || r.quiet(rel) {
		return 0
	}
	if r.Inner != nil {
		return sanitizeFactor(r.Inner.Factor(rel))
	}
	return 1
}

// MeanFactor implements Strategy: a segment walk over the quiet windows
// intersecting [rel0, rel1], integrating the inner strategy over the
// attacking spans. Exact whenever Inner.MeanFactor is.
func (r ReprofileTimed) MeanFactor(rel0, rel1 float64) float64 {
	if rel1 <= rel0 {
		return r.Factor(math.Max(rel0, 0))
	}
	lo := math.Max(rel0, 0)
	if rel1 <= lo {
		return 0
	}
	every, quiet, offset, ok := r.knobs()
	if !ok {
		return sanitizeFactor(r.innerArea(lo, rel1) / (rel1 - rel0))
	}
	if quiet >= every {
		return 0
	}
	// Walk the attacking spans between quiet windows.
	area := 0.0
	// First quiet-window start at or before lo.
	k := math.Floor((lo - offset) / every)
	for qs := offset + k*every + (every - quiet); ; qs += every {
		attackEnd := math.Min(qs, rel1) // attacking span runs up to the quiet start
		if attackEnd > lo {
			area += r.innerArea(lo, attackEnd)
		}
		lo = math.Max(lo, qs+quiet) // skip the quiet window
		if qs >= rel1 || lo >= rel1 {
			break
		}
	}
	return sanitizeFactor(area / (rel1 - rel0))
}

// innerArea integrates the inner strategy (or 1) over [lo, hi].
func (r ReprofileTimed) innerArea(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	if r.Inner == nil {
		return hi - lo
	}
	return sanitizeFactor(r.Inner.MeanFactor(lo, hi)) * (hi - lo)
}

// StrategyParams carries the detector-geometry and victim knowledge a named
// strategy is tuned against. The zero value selects Table 1 geometry
// (windowStep 0.5 s, H_C 30), a 30 s fallback victim period, and a 150 s
// slow-ramp rise.
type StrategyParams struct {
	// WindowStep is the boundary scheme's MA window step ΔW·T_PCM in
	// seconds (0 = 0.5, Table 1).
	WindowStep float64
	// HC is the consecutive-violation threshold the duty cycle ducks
	// under (0 = 30, Table 1).
	HC int
	// VictimPeriod is the victim's (estimated or profiled) period in
	// seconds for period-mimicking (0 = the 30 s fallback).
	VictimPeriod float64
	// SlowRise is the slow-ramp rise time in seconds (0 = 150).
	SlowRise float64
	// Coordinated is the coordinated group size K (0 = 3).
	Coordinated int
	// ReprofileEvery and ReprofileQuiet shape the reprofile-timed windows
	// (0 = 120 s interval, 20 s quiet).
	ReprofileEvery, ReprofileQuiet float64
}

func (p StrategyParams) withDefaults() StrategyParams {
	if p.WindowStep <= 0 {
		p.WindowStep = 0.5
	}
	if p.HC <= 0 {
		p.HC = 30
	}
	if p.VictimPeriod <= 0 {
		p.VictimPeriod = fallbackMimicPeriod
	}
	if p.SlowRise <= 0 {
		p.SlowRise = 150
	}
	if p.Coordinated <= 0 {
		p.Coordinated = 3
	}
	if p.ReprofileEvery <= 0 {
		p.ReprofileEvery = 120
	}
	if p.ReprofileQuiet <= 0 {
		p.ReprofileQuiet = 20
	}
	return p
}

// NamedStrategy builds one of the named strategies with knobs derived from
// params. StrategySteady (and "") returns nil: the unmodulated schedule.
func NamedStrategy(name string, params StrategyParams) (Strategy, error) {
	p := params.withDefaults()
	switch name {
	case "", StrategySteady:
		return nil, nil
	case StrategyDutyCycle:
		return DutyCycleBelowStreak(p.WindowStep, p.HC), nil
	case StrategyPeriodMimic:
		m := PeriodMimic{Period: p.VictimPeriod, Duty: 0.3, Cycles: 1,
			Estimated: params.VictimPeriod > 0}
		capMimicDuty(&m, p.WindowStep, p.HC)
		return m, nil
	case StrategySlowRamp:
		return SlowRamp{Rise: p.SlowRise}, nil
	case StrategyCoordinated:
		return CoordinatedBelowStreak(p.Coordinated, p.WindowStep, p.HC), nil
	case StrategyReprofileTimed:
		return ReprofileTimed{Every: p.ReprofileEvery, Quiet: p.ReprofileQuiet}, nil
	default:
		return nil, fmt.Errorf("attack: unknown strategy %q (known: %v)", name, StrategyNames())
	}
}
