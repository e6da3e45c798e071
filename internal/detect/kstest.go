package detect

import (
	"fmt"
	"sort"

	"github.com/memdos/sds/internal/ksstat"
	"github.com/memdos/sds/internal/pcm"
)

// KSTestConfig carries the baseline's parameters, defaulting to the
// settings of Zhang et al. that the paper reuses (§3.2): T_PCM=0.01 s,
// W_R=W_M=1 s, L_M=2 s, L_R=30 s, four consecutive rejections.
type KSTestConfig struct {
	// TPCM is the PCM sampling interval in seconds.
	TPCM float64
	// WR is the reference-collection duration in seconds (others throttled).
	WR float64
	// WM is the monitored-sample window duration in seconds.
	WM float64
	// LM is the interval between distribution checks in seconds.
	LM float64
	// LR is the interval between reference re-collections in seconds.
	LR float64
	// Consecutive is the number of consecutive rejections that raise a
	// suspicion (the paper: four).
	Consecutive int
	// ConfirmStreaks is how many Consecutive-length rejection streaks must
	// accumulate against the same reference before the attack is declared
	// (streaks may be separated by isolated acceptances; a reference
	// refresh resets the count). The paper ties the baseline's 20–50 s
	// detection delay to the infrequency of its throttled reference
	// collections ("such collection cannot be too frequent … this
	// indirectly increases the detection latency"): once suspicious, the
	// detector defers the next scheduled refresh (once) and keeps
	// verifying against the current baseline before declaring.
	// 1 declares immediately at the first streak.
	ConfirmStreaks int
	// FreezeBaselineOnSuspicion defers due reference refreshes while a
	// suspicion is being verified or an alarm stands, so the baseline is
	// never re-learned from behaviour the detector considers anomalous.
	// The evaluation uses the default (true); the §3.2 measurement study
	// disables it to follow the published per-interval protocol exactly.
	FreezeBaselineOnSuspicion bool
	// Alpha is the KS significance level.
	Alpha float64
}

// DefaultKSTestConfig returns the baseline parameters of the paper.
func DefaultKSTestConfig() KSTestConfig {
	return KSTestConfig{
		TPCM:                      0.01,
		WR:                        1,
		WM:                        1,
		LM:                        2,
		LR:                        30,
		Consecutive:               4,
		ConfirmStreaks:            3,
		FreezeBaselineOnSuspicion: true,
		Alpha:                     0.05,
	}
}

// Validate reports configuration errors.
func (c KSTestConfig) Validate() error {
	switch {
	case c.TPCM <= 0:
		return fmt.Errorf("detect: KStest T_PCM must be positive, got %v", c.TPCM)
	case c.WR <= 0 || c.WM <= 0:
		return fmt.Errorf("detect: KStest window durations must be positive (W_R=%v, W_M=%v)", c.WR, c.WM)
	case c.LM < c.WM:
		return fmt.Errorf("detect: KStest check interval L_M=%v shorter than window W_M=%v", c.LM, c.WM)
	case c.LR < c.WR+c.LM:
		return fmt.Errorf("detect: KStest reference interval L_R=%v leaves no room to monitor", c.LR)
	case c.Consecutive <= 0:
		return fmt.Errorf("detect: KStest consecutive threshold must be positive, got %d", c.Consecutive)
	case c.ConfirmStreaks <= 0:
		return fmt.Errorf("detect: KStest confirm streaks must be positive, got %d", c.ConfirmStreaks)
	case c.Alpha <= 0 || c.Alpha >= 1:
		return fmt.Errorf("detect: KStest alpha must be in (0,1), got %v", c.Alpha)
	}
	return nil
}

// CheckStat is one KS comparison outcome, exposed to hooks (the 0/1 series
// of the paper's Fig. 1).
type CheckStat struct {
	// T is the virtual time of the check.
	T float64
	// Rejected reports that reference and monitored samples had distinct
	// distributions (the "1" value in Fig. 1).
	Rejected bool
	// DAccess and DMiss are the KS statistics of the two counters.
	DAccess, DMiss float64
}

// KSTest is the baseline detector (Zhang et al., AsiaCCS '17). Every L_R
// seconds it throttles all other VMs and collects W_R seconds of reference
// samples from the protected VM; then once every L_M seconds it compares the
// last W_M seconds of monitored samples against the reference with the
// two-sample KS test on both counters, declaring an attack after the
// configured number of consecutive rejections.
type KSTest struct {
	cfg KSTestConfig

	refA, refM []float64
	refReady   bool

	winA, winM []float64 // ring buffers of the last W_M samples
	winPos     int
	winCount   int

	// monA and monM are reusable scratch the monitored rings are linearized
	// and sorted into at each check, keeping the steady state allocation-free
	// (the reference slices are sorted in place once per collection).
	monA, monM []float64

	collecting  bool
	refDeadline float64
	nextRef     float64
	nextCheck   float64

	consec   int
	streaks  int // Consecutive-length rejection streaks since last refresh
	deferred bool
	alarmLog
	checkHook func(CheckStat)
}

var _ Detector = (*KSTest)(nil)

// KSTestOption customizes a KSTest detector.
type KSTestOption interface{ applyKSTest(*KSTest) }

type ksCheckHook func(CheckStat)

func (h ksCheckHook) applyKSTest(d *KSTest) { d.checkHook = h }

// WithKSTestCheckHook registers a callback invoked after every KS
// comparison — used to trace the 0/1 sequences of the paper's Fig. 1.
func WithKSTestCheckHook(hook func(CheckStat)) KSTestOption {
	return ksCheckHook(hook)
}

// NewKSTest returns the baseline detector; nil options are skipped. The
// detector throttles nothing itself: a plane that models the hypervisor
// reads Collecting between samples and quiesces the co-located VMs while
// it holds.
func NewKSTest(cfg KSTestConfig, opts ...KSTestOption) (*KSTest, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	winLen := pcm.SampleCount(cfg.WM, cfg.TPCM)
	if winLen < 2 {
		return nil, fmt.Errorf("detect: KStest monitored window holds %d samples; need ≥ 2", winLen)
	}
	d := &KSTest{
		cfg:  cfg,
		winA: make([]float64, winLen),
		winM: make([]float64, winLen),
		monA: make([]float64, winLen),
		monM: make([]float64, winLen),
	}
	for _, o := range opts {
		if o != nil {
			o.applyKSTest(d)
		}
	}
	return d, nil
}

// Name implements Detector.
func (d *KSTest) Name() string { return "KStest" }

// Observe implements Detector.
func (d *KSTest) Observe(s pcm.Sample) {
	// A due reference refresh is deferred — once — while a suspicion is
	// being verified or an alarm stands: the baseline should not be
	// re-learned from behaviour the detector currently considers
	// anomalous, but profiling cannot be starved forever either.
	if !d.collecting && s.T >= d.nextRef {
		suspicious := d.cfg.FreezeBaselineOnSuspicion && (d.streaks > 0 || d.alarmed)
		if suspicious && !d.deferred {
			d.deferred = true
			d.nextRef += d.cfg.LR
		} else {
			d.beginReference(s.T)
		}
	}
	if d.collecting {
		d.refA = append(d.refA, s.Access)
		d.refM = append(d.refM, s.Miss)
		if s.T >= d.refDeadline {
			d.endReference(s.T)
		}
		return
	}

	// Monitored-sample ring.
	d.winA[d.winPos] = s.Access
	d.winM[d.winPos] = s.Miss
	if d.winPos++; d.winPos == len(d.winA) {
		d.winPos = 0
	}
	if d.winCount < len(d.winA) {
		d.winCount++
	}

	if d.refReady && d.winCount == len(d.winA) && s.T >= d.nextCheck {
		d.check(s.T)
		d.nextCheck += d.cfg.LM
	}
}

func (d *KSTest) beginReference(t float64) {
	d.collecting = true
	d.refA = d.refA[:0]
	d.refM = d.refM[:0]
	d.refDeadline = t + d.cfg.WR
}

func (d *KSTest) endReference(t float64) {
	d.collecting = false
	d.refReady = true
	// The reference is only ever consumed as an empirical distribution, so
	// sort it once here instead of copy+sort at every check.
	sort.Float64s(d.refA)
	sort.Float64s(d.refM)
	// A fresh reference restarts the verdict: the consecutive count, the
	// alarm state, and the monitored window (samples collected while others
	// were throttled are not representative of monitored conditions).
	d.consec = 0
	d.streaks = 0
	d.deferred = false
	d.alarmed = false
	d.winCount = 0
	d.winPos = 0
	d.nextRef = t + d.cfg.LR - d.cfg.WR
	d.nextCheck = t + d.cfg.LM
}

func (d *KSTest) check(t float64) {
	monA := d.ringSnapshotInto(d.monA, d.winA)
	monM := d.ringSnapshotInto(d.monM, d.winM)
	sort.Float64s(monA)
	sort.Float64s(monM)
	dA, errA := ksstat.StatisticSorted(d.refA, monA)
	dM, errM := ksstat.StatisticSorted(d.refM, monM)
	if errA != nil || errM != nil {
		// Cannot happen with validated windows; treat as non-rejection.
		return
	}
	n, m := len(d.refA), len(monA)
	rejected := ksstat.PValue(dA, n, m) < d.cfg.Alpha ||
		ksstat.PValue(dM, len(d.refM), len(monM)) < d.cfg.Alpha

	if d.checkHook != nil {
		d.checkHook(CheckStat{T: t, Rejected: rejected, DAccess: dA, DMiss: dM})
	}

	if rejected {
		d.consec++
		if d.consec%d.cfg.Consecutive == 0 {
			d.streaks++
		}
	} else {
		d.consec = 0
	}
	if d.rise(d.streaks >= d.cfg.ConfirmStreaks) {
		d.alarms = append(d.alarms, Alarm{
			T:        t,
			Detector: d.Name(),
			Metric:   MetricAccess,
			Reason: fmt.Sprintf("reference and monitored samples differ (KS D=%.3f/%.3f) over %d rejection streaks",
				dA, dM, d.streaks),
		})
	}
}

// ringSnapshotInto linearizes the ring (oldest first) into the caller's
// scratch and returns it.
func (d *KSTest) ringSnapshotInto(out, ring []float64) []float64 {
	copy(out, ring[d.winPos:])
	copy(out[len(ring)-d.winPos:], ring[:d.winPos])
	return out
}

// Collecting reports whether the detector is currently collecting reference
// samples, i.e. other VMs must be throttled (see the package-level
// Collecting, which planes read).
func (d *KSTest) Collecting() bool { return d.collecting }
