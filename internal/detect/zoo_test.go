package detect

import (
	"testing"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// The detector zoo: behavioural tests for CUSUM, TimeFrag and EWMAVar, plus
// the Alarms() aliasing contract enforced across every registered scheme.

func TestCUSUMDetectsAttacks(t *testing.T) {
	for _, kind := range []attack.Kind{attack.BusLock, attack.Cleanse} {
		t.Run(kind.String(), func(t *testing.T) {
			prof := steadyProfile(t, workload.KMeans, 91)
			d, err := NewCUSUM(prof, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sched := attack.Schedule{Kind: kind, Start: 250, Ramp: 10}
			feed(d, genSamples(t, workload.KMeans, 92, 500, sched))
			at := firstAlarmAfter(d, sched.Start)
			if at < 0 {
				t.Fatalf("CUSUM missed a full-intensity %v attack", kind)
			}
			if delay := at - sched.Start; delay > 120 {
				t.Fatalf("CUSUM detected %v only after %.0f s", kind, delay)
			}
		})
	}
}

func TestCUSUMStatisticsCapBoundsReArm(t *testing.T) {
	prof := Profile{App: "synthetic", MeanAccess: 1000, StdAccess: 50, MeanMiss: 100, StdMiss: 5}
	d, err := NewCUSUM(prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A long, hard level drop saturates the drop statistic at the cap
	// instead of growing without bound.
	for i := 0; i < 5000; i++ {
		d.ObserveMA(float64(i), 200, 100)
	}
	_, negA, _, _ := d.Statistics()
	if want := cusumCapMult * d.Interval(); negA != want {
		t.Fatalf("drop statistic = %v after sustained shift, want capped at %v", negA, want)
	}
	if !d.Alarmed() {
		t.Fatal("CUSUM not alarmed during sustained shift")
	}
	// After the shift ends the statistic must drain and the alarm clear in
	// a bounded number of windows: ~(capMult−1)·H/slack once the EWMA has
	// recovered into the slack band (≈12 windows at α=0.2), ~100 in total.
	// Without the cap, 5000 windows at z≈−16 would need tens of thousands
	// of windows to drain — that unbounded latch is what the cap prevents.
	const drain = 100
	for i := 0; i < drain; i++ {
		d.ObserveMA(float64(5000+i), 1000, 100)
	}
	if d.Alarmed() {
		t.Fatalf("CUSUM still alarmed %d windows after the shift ended", drain)
	}
}

// TestTimeFragSurvivesFragmentedAttack pins the zoo's reason for existing:
// an attacker that duty-cycles below SDS/B's consecutive-violation streak
// H_C evades the boundary scheme entirely, but TimeFrag's density count
// still crosses its threshold. The stream is synthesized at MA-window level
// so the duty cycle is exact: 15-window bursts separated by 20 in-profile
// windows. EWMA smoothing (α=0.2) keeps the signal out of range ~11 windows
// into each recovery, so SDS/B sees ≈26-violation streaks — under H_C=30 —
// while any 60-window span holds ≈44 suspicious windows, over TimeFrag's
// 30-window density threshold.
func TestTimeFragSurvivesFragmentedAttack(t *testing.T) {
	prof := Profile{App: "synthetic", MeanAccess: 1000, StdAccess: 50, MeanMiss: 100, StdMiss: 5}
	cfg := DefaultConfig()
	tf, err := NewTimeFrag(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSDSB(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HC != 30 {
		t.Fatalf("test assumes H_C = 30, Table 1 gives %d", cfg.HC)
	}

	now := 0.0
	emit := func(n int, access float64) {
		for i := 0; i < n; i++ {
			now++
			tf.ObserveMA(now, access, 100)
			sb.ObserveMA(now, access, 100)
		}
	}
	emit(100, 1000) // settle both EWMAs in profile
	for cycle := 0; cycle < 8; cycle++ {
		emit(15, 400) // burst: far below μ−kσ, but < H_C consecutive
		emit(20, 1000)
	}
	if sb.Alarmed() || sb.AlarmCount() != 0 {
		t.Fatalf("SDS/B alarmed on a sub-H_C duty cycle (count %d); fragmentation premise broken", sb.AlarmCount())
	}
	if tf.AlarmCount() == 0 {
		t.Fatal("TimeFrag missed the fragmented attack SDS/B cannot see")
	}
	// EWMA smoothing means suspicion outlasts each burst slightly; the
	// density must still have crossed the configured threshold.
	if tf.Suspicious() < tf.Need() && !tf.Alarmed() {
		t.Fatalf("TimeFrag suspicious count %d below threshold %d and not alarmed", tf.Suspicious(), tf.Need())
	}
}

func TestTimeFragQuietOnCleanTraffic(t *testing.T) {
	prof := steadyProfile(t, workload.FaceNet, 93)
	d, err := NewTimeFrag(prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(d, genSamples(t, workload.FaceNet, 94, 500, attack.Schedule{}))
	if d.AlarmCount() != 0 {
		t.Fatalf("TimeFrag raised %d alarms on attack-free traffic", d.AlarmCount())
	}
}

func TestTimeFragDetectsSustainedAttack(t *testing.T) {
	prof := steadyProfile(t, workload.KMeans, 95)
	d, err := NewTimeFrag(prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := attack.Schedule{Kind: attack.BusLock, Start: 250, Ramp: 10}
	feed(d, genSamples(t, workload.KMeans, 96, 500, sched))
	if at := firstAlarmAfter(d, sched.Start); at < 0 {
		t.Fatal("TimeFrag missed a sustained bus-locking attack")
	}
}

func TestEWMAVarCalibratesThenDetects(t *testing.T) {
	prof := Profile{App: "synthetic", MeanAccess: 1000, StdAccess: 50, MeanMiss: 100, StdMiss: 5}
	d, err := NewEWMAVar(prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Calibration phase: mild in-profile jitter around the mean.
	jitter := []float64{-30, 20, -10, 35, -25, 15}
	i := 0
	emit := func(n int, scale float64) {
		for j := 0; j < n; j++ {
			i++
			d.ObserveMA(float64(i), 1000+scale*jitter[i%len(jitter)], 100)
		}
	}
	emit(100, 1)
	if d.Calibrated() {
		t.Fatal("calibrated before burn-in + VarCalib windows")
	}
	emit(80, 1)
	if !d.Calibrated() {
		t.Fatal("not calibrated after burn-in + VarCalib windows")
	}
	if _, _, _, _, ok := d.VarianceBounds(); !ok {
		t.Fatal("VarianceBounds not available after calibration")
	}
	if d.AlarmCount() != 0 {
		t.Fatalf("%d alarms on calibration-like traffic", d.AlarmCount())
	}
	// Attack phase: same mean, 20× the dispersion — invisible to a pure
	// level detector, loud in the variance channel.
	emit(200, 20)
	if d.AlarmCount() == 0 {
		t.Fatal("EWMAVar missed a 20× dispersion increase")
	}
}

// TestEWMAVarQuietOnStationaryTraffic feeds a stationary Gaussian MA stream
// — the traffic class EWMAVar's self-calibration assumes. On periodic or
// phased applications its variance signal oscillates and the per-window
// violation rate approaches the Chebyshev bound (that FPR weakness is why
// it is fielded as a tournament baseline, and what the ROC sweep shows);
// on stationary traffic it must be quiet.
func TestEWMAVarQuietOnStationaryTraffic(t *testing.T) {
	prof := Profile{App: "synthetic", MeanAccess: 1000, StdAccess: 50, MeanMiss: 100, StdMiss: 5}
	d, err := NewEWMAVar(prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(97, 98)
	for i := 0; i < 1000; i++ {
		d.ObserveMA(float64(i+1), r.Normal(1000, 30), r.Normal(100, 3))
	}
	windows, violations := d.ViolationStats()
	if windows == 0 {
		t.Fatal("no detection-phase windows observed")
	}
	if d.AlarmCount() != 0 {
		t.Fatalf("EWMAVar raised %d alarms on stationary traffic (violations %d/%d)",
			d.AlarmCount(), violations, windows)
	}
}

// log exposes a scheme's embedded alarm history to TestAlarmsNoAliasing.
func (l *alarmLog) log() *alarmLog { return l }

// TestAlarmsNoAliasing pins the Alarms() contract for every registered
// scheme: the returned slice is the caller's to keep, so mutating it — or
// alarms firing afterwards — must not corrupt either side. The test writes
// through the returned slice and checks the detector's next snapshot is
// unaffected (a detector returning its internal slice fails immediately).
func TestAlarmsNoAliasing(t *testing.T) {
	prof := steadyProfile(t, workload.FaceNet, 99)
	cfg := DefaultConfig()
	injected := Alarm{T: 1, Detector: "test", Metric: MetricAccess, Reason: "original"}

	type buildFunc func(t *testing.T) (Detector, *[]Alarm)
	var names []string
	var builds []buildFunc
	for _, s := range Schemes() {
		names = append(names, s.Name)
		builds = append(builds, func(t *testing.T) (Detector, *[]Alarm) {
			d, err := s.New(prof, cfg, DefaultKSTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			return d, &d.(interface{ log() *alarmLog }).log().alarms
		})
	}
	names = append(names, "Reprofiler")
	builds = append(builds, func(t *testing.T) (Detector, *[]Alarm) {
		r, err := NewReprofiler(workload.FaceNet, prof, cfg, 600)
		if err != nil {
			t.Fatal(err)
		}
		// Inject into the retired-generation history: the concatenated
		// view must still be aliasing-safe.
		return r, &r.history
	})
	for i, scheme := range names {
		t.Run(scheme, func(t *testing.T) {
			d, internal := builds[i](t)
			*internal = append(*internal, injected)

			got := d.Alarms()
			if len(got) != 1 || got[0].Reason != "original" {
				t.Fatalf("Alarms() = %+v, want the injected alarm", got)
			}
			got[0].Reason = "mutated by caller"
			_ = append(got, Alarm{Reason: "appended by caller"})

			if (*internal)[0].Reason != "original" {
				t.Fatalf("%s: caller mutation reached the internal slice", scheme)
			}
			again := d.Alarms()
			if len(again) != 1 || again[0].Reason != "original" {
				t.Fatalf("%s: second snapshot corrupted: %+v", scheme, again)
			}
		})
	}
}
