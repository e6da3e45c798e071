package experiment

import (
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/signal"
	"github.com/memdos/sds/internal/timeseries"
	"github.com/memdos/sds/internal/workload"
)

// KStestIntervalResult describes one L_R interval of the paper's Fig. 1
// experiment: the per-check KS decisions and whether the interval would
// declare an attack (≥ Consecutive consecutive rejections).
type KStestIntervalResult struct {
	Index    int
	Checks   []bool // true = distributions judged distinct ("1" in Fig. 1)
	Declared bool
}

// FalseAlarmResult is one row of the §3.2 study: how often KStest declares
// an attack on an attack-free application.
type FalseAlarmResult struct {
	App       string
	Intervals int
	Declared  int
	// Rate = Declared/Intervals (the paper: TeraSort >60%, Bayes 30%, …).
	Rate float64
}

// KStestIntervals runs the baseline on an attack-free application for the
// given number of L_R intervals (the paper uses twenty) and reports each
// interval's check series — the paper's Fig. 1 for TeraSort.
func (c Config) KStestIntervals(app string, intervals int) ([]KStestIntervalResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if intervals <= 0 {
		return nil, fmt.Errorf("experiment: interval count must be positive, got %d", intervals)
	}
	model, err := workload.NewModel(workload.MustAppProfile(app), randx.DeriveString(c.Seed, app+"/fig1"))
	if err != nil {
		return nil, err
	}

	results := make([]KStestIntervalResult, intervals)
	for i := range results {
		results[i].Index = i
	}
	// The measurement study follows the published protocol exactly: a
	// reference is collected at the start of every L_R interval and an
	// interval declares an attack when it contains Consecutive consecutive
	// rejections — no confirmation streaks, no baseline freezing.
	kcfg := c.KSTest
	kcfg.ConfirmStreaks = 1
	kcfg.FreezeBaselineOnSuspicion = false
	var checks []detect.CheckStat
	det, err := detect.NewKSTest(kcfg, detect.WithKSTestCheckHook(func(s detect.CheckStat) {
		checks = append(checks, s)
	}))
	if err != nil {
		return nil, err
	}

	tpcm := c.KSTest.TPCM
	total := float64(intervals) * c.KSTest.LR
	n := pcm.SampleCount(total, tpcm)
	for i := 0; i < n; i++ {
		now := float64(i+1) * tpcm
		a, m := model.Sample(tpcm, workload.Env{Quiesced: det.Collecting()})
		det.Observe(pcm.Sample{T: now, Access: a, Miss: m})
	}

	for _, chk := range checks {
		idx := int(chk.T / c.KSTest.LR)
		if idx >= intervals {
			idx = intervals - 1
		}
		results[idx].Checks = append(results[idx].Checks, chk.Rejected)
	}
	for i := range results {
		results[i].Declared = hasConsecutive(results[i].Checks, c.KSTest.Consecutive)
	}
	return results, nil
}

// hasConsecutive reports whether the series contains at least n consecutive
// true values.
func hasConsecutive(series []bool, n int) bool {
	run := 0
	for _, v := range series {
		if !v {
			run = 0
			continue
		}
		run++
		if run >= n {
			return true
		}
	}
	return false
}

// KStestFalseAlarms reproduces the §3.2 false-alarm study across the given
// applications (all when empty).
func (c Config) KStestFalseAlarms(apps []string, intervals int) ([]FalseAlarmResult, error) {
	if len(apps) == 0 {
		apps = workload.AppNames()
	}
	results := make([]FalseAlarmResult, 0, len(apps))
	for _, app := range apps {
		ivs, err := c.KStestIntervals(app, intervals)
		if err != nil {
			return nil, err
		}
		declared := 0
		for _, iv := range ivs {
			if iv.Declared {
				declared++
			}
		}
		results = append(results, FalseAlarmResult{
			App:       app,
			Intervals: len(ivs),
			Declared:  declared,
			Rate:      float64(declared) / float64(len(ivs)),
		})
	}
	return results, nil
}

// Trace is one panel of the paper's Figs. 2–6: the relevant counter over a
// run in which the attack starts halfway, plus the summary statistics that
// constitute Observations (1) and (2).
type Trace struct {
	App    string
	Attack attack.Kind
	// Metric is the counter the paper plots for this attack (AccessNum for
	// bus locking, MissNum for cleansing).
	Metric detect.Metric
	// T and Value are the raw PCM series.
	T, Value []float64
	// AttackStart is when the attack began.
	AttackStart float64
	// MeanBefore and MeanAfter are the counter means of the two halves.
	MeanBefore, MeanAfter float64
	// PeriodBefore and PeriodAfter are the MA-series periods of the two
	// halves (0 when not detected; meaningful for periodic applications).
	PeriodBefore, PeriodAfter int
}

// AttackTrace reproduces one panel of Figs. 2–6: seconds/2 of normal
// execution followed by seconds/2 under the attack (the paper uses 60+60).
func (c Config) AttackTrace(app string, kind attack.Kind, seconds float64) (Trace, error) {
	if err := c.Validate(); err != nil {
		return Trace{}, err
	}
	if kind != attack.BusLock && kind != attack.Cleanse {
		return Trace{}, fmt.Errorf("experiment: trace requires a concrete attack, got %v", kind)
	}
	model, err := workload.NewModel(workload.MustAppProfile(app), randx.DeriveString(c.Seed, app+"/trace"))
	if err != nil {
		return Trace{}, err
	}
	tr := Trace{App: app, Attack: kind, AttackStart: seconds / 2, Metric: detect.MetricAccess}
	if kind == attack.Cleanse {
		tr.Metric = detect.MetricMiss
	}
	sched := attack.Schedule{Kind: kind, Start: seconds / 2, Ramp: 5}

	tpcm := c.Detect.TPCM
	n := pcm.SampleCount(seconds, tpcm)
	tr.T = make([]float64, n)
	tr.Value = make([]float64, n)
	for i := 0; i < n; i++ {
		now := float64(i+1) * tpcm
		a, m := model.Sample(tpcm, sched.Env(now, false))
		tr.T[i] = now
		if tr.Metric == detect.MetricAccess {
			tr.Value[i] = a
		} else {
			tr.Value[i] = m
		}
	}

	half := n / 2
	tr.MeanBefore = timeseries.Mean(tr.Value[:half])
	tr.MeanAfter = timeseries.Mean(tr.Value[half:])
	maBefore, err := timeseries.MovingAverage(tr.Value[:half], c.Detect.W, c.Detect.DW)
	if err != nil {
		return Trace{}, err
	}
	// Period analysis of the attack half skips the attacker's ramp-up so
	// that the stretched steady-state period is measured, not the mixture.
	rampSamples := int(sched.Ramp/tpcm) + 1
	if rampSamples > n/4 {
		rampSamples = n / 4
	}
	maAfter, err := timeseries.MovingAverage(tr.Value[half+rampSamples:], c.Detect.W, c.Detect.DW)
	if err != nil {
		return Trace{}, err
	}
	// Period analysis is meaningful only for the applications the paper
	// identifies as periodic; occasional pseudo-periods in other apps'
	// short windows would just be noise fits.
	if workload.MustAppProfile(app).Periodic {
		opts := signal.PeriodOptions{MaxPeriod: 60}
		if est, ok := signal.EstimatePeriod(maBefore, opts); ok {
			tr.PeriodBefore = est.Period
		}
		if est, ok := signal.EstimatePeriod(maAfter, opts); ok {
			tr.PeriodAfter = est.Period
		}
	}
	return tr, nil
}

// Fig7Result is the paper's Fig. 7 walk-through: the k-means EWMA series
// with its normal range and the moment SDS/B raised the alarm.
type Fig7Result struct {
	App          string
	Windows      []detect.WindowStat
	Lower, Upper float64
	AlarmWindow  int // index of the window at which the alarm fired; -1 if none
	AlarmTime    float64
	AttackStart  float64
}

// SDSBExample reproduces Fig. 7 for the given app under a bus-locking
// attack starting mid-run.
func (c Config) SDSBExample(app string, seconds float64) (Fig7Result, error) {
	if err := c.Validate(); err != nil {
		return Fig7Result{}, err
	}
	seed := randx.Derive(c.Seed, 7).Uint64()
	prof, err := c.buildProfile(app, seed)
	if err != nil {
		return Fig7Result{}, err
	}
	res := Fig7Result{App: app, AlarmWindow: -1, AttackStart: seconds / 2}
	res.Lower, res.Upper, err = prof.Bounds(detect.MetricAccess, c.Detect.K)
	if err != nil {
		return Fig7Result{}, err
	}
	det, err := detect.NewSDSB(prof, c.Detect, detect.WithSDSBWindowHook(func(w detect.WindowStat) {
		res.Windows = append(res.Windows, w)
	}))
	if err != nil {
		return Fig7Result{}, err
	}
	model, err := workload.NewModel(workload.MustAppProfile(app), randx.DeriveString(seed, app+"/fig7"))
	if err != nil {
		return Fig7Result{}, err
	}
	sched := attack.Schedule{Kind: attack.BusLock, Start: seconds / 2, Ramp: 5}
	tpcm := c.Detect.TPCM
	n := pcm.SampleCount(seconds, tpcm)
	for i := 0; i < n; i++ {
		now := float64(i+1) * tpcm
		a, m := model.Sample(tpcm, sched.Env(now, false))
		det.Observe(pcm.Sample{T: now, Access: a, Miss: m})
		if res.AlarmWindow < 0 && det.Alarmed() && now >= res.AttackStart {
			res.AlarmWindow = len(res.Windows) - 1
			res.AlarmTime = now
		}
	}
	return res, nil
}

// Fig8Result is the paper's Fig. 8 walk-through: the FaceNet MA series and
// the sequence of periods SDS/P computed in real time.
type Fig8Result struct {
	App          string
	NormalPeriod int
	MA           []detect.WindowStat
	Estimates    []detect.PeriodStat
	AlarmTime    float64 // -1 if never alarmed
	AttackStart  float64
}

// SDSPExample reproduces Fig. 8 for a periodic app under a bus-locking
// attack starting mid-run.
func (c Config) SDSPExample(app string, seconds float64) (Fig8Result, error) {
	if err := c.Validate(); err != nil {
		return Fig8Result{}, err
	}
	seed := randx.Derive(c.Seed, 8).Uint64()
	prof, err := c.buildProfile(app, seed)
	if err != nil {
		return Fig8Result{}, err
	}
	if !prof.Periodic {
		return Fig8Result{}, fmt.Errorf("experiment: %s did not profile as periodic", app)
	}
	res := Fig8Result{App: app, NormalPeriod: prof.PeriodMA, AlarmTime: -1, AttackStart: seconds / 2}

	det, err := detect.NewSDSP(prof, c.Detect, detect.WithSDSPEstimateHook(func(p detect.PeriodStat) {
		// Fig. 8(b) plots the AccessNum period sequence.
		if p.Metric == detect.MetricAccess {
			res.Estimates = append(res.Estimates, p)
		}
	}))
	if err != nil {
		return Fig8Result{}, err
	}
	// A side SDS/B-style hook records the MA series for the figure.
	maRecorder, err := detect.NewSDSB(prof, c.Detect, detect.WithSDSBWindowHook(func(w detect.WindowStat) {
		res.MA = append(res.MA, w)
	}))
	if err != nil {
		return Fig8Result{}, err
	}

	model, err := workload.NewModel(workload.MustAppProfile(app), randx.DeriveString(seed, app+"/fig8"))
	if err != nil {
		return Fig8Result{}, err
	}
	sched := attack.Schedule{Kind: attack.BusLock, Start: seconds / 2, Ramp: 5}
	tpcm := c.Detect.TPCM
	n := pcm.SampleCount(seconds, tpcm)
	for i := 0; i < n; i++ {
		now := float64(i+1) * tpcm
		a, m := model.Sample(tpcm, sched.Env(now, false))
		s := pcm.Sample{T: now, Access: a, Miss: m}
		det.Observe(s)
		maRecorder.Observe(s)
		if res.AlarmTime < 0 && det.Alarmed() && now >= res.AttackStart {
			res.AlarmTime = now
		}
	}
	return res, nil
}
