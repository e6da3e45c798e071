package experiment

import (
	"fmt"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/metrics"
)

// The evasion tournament: every scheme is first tuned to its FPR-budget
// operating point by the ROC machinery, then each evasive strategy attacks
// it at a grid of peak intensities. A scheme's evasion margin against a
// strategy is the largest peak intensity that stays completely undetected —
// the attacker-side dual of the ROC's provider-side question: "how hard can
// an adaptive adversary hit this scheme, tuned as deployed, without
// tripping it?" A margin of 0 means even the weakest swept intensity is
// caught; a margin of 1 means the strategy evades the scheme outright.

// evasionPeaks is the swept peak-intensity grid (ascending, dyadic so the
// values are exact floats). The low end sits in the sub-band regime where a
// persistent mean shift stays inside a μ±kσ boundary band and only
// accumulating or distributional detectors can respond.
var evasionPeaks = []float64{0.0625, 0.125, 0.25, 0.5, 1}

// EvasionPeaks returns the swept peak-intensity grid (a copy, ascending).
func EvasionPeaks() []float64 {
	out := make([]float64, len(evasionPeaks))
	copy(out, evasionPeaks)
	return out
}

// evasionKinds are the attack vectors each strategy drives.
var evasionKinds = []attack.Kind{attack.BusLock, attack.Cleanse}

// EvasionPoint is one swept peak intensity of one (scheme, strategy, kind)
// cell: how many of the app × run attack runs raised any alarm during the
// attack stage.
type EvasionPoint struct {
	Peak     float64
	Runs     int
	Detected int
	// Rate is Detected/Runs.
	Rate float64
}

// EvasionCell is one strategy × attack-kind row of a scheme's report.
type EvasionCell struct {
	// Strategy is the attack.Strategy* name ("steady" = unmodulated).
	Strategy string
	// Kind is the attack vector name (attack.Kind.String()).
	Kind string
	// Points are in peak-ascending grid order.
	Points []EvasionPoint
	// Margin is the largest swept peak with zero detections at or below
	// it (the prefix rule: a low-intensity detection caps the margin even
	// if a higher peak happens to slip through). 0 when the lowest peak
	// is already detected.
	Margin float64
	// FullRate is the detection rate at the highest swept peak.
	FullRate float64
}

// EvasionCurve is one scheme's evasion report at its operating point.
type EvasionCurve struct {
	Scheme Scheme
	// Knob and Threshold identify the operating point the scheme was
	// tuned to (from the ROC tournament at ROCBudgetFPR).
	Knob      string
	Threshold float64
	// Budgeted reports whether the operating point met the FPR budget;
	// when no ROC point qualified the minimum-FPR point is used instead
	// and the margins are against an over-alarming configuration.
	Budgeted bool
	// OperatingFPR is the operating point's pooled ROC false-positive
	// rate, for context.
	OperatingFPR float64
	// Cells are strategy-major, kind-minor, in StrategyNames order.
	Cells []EvasionCell
}

// evasionStrategy builds the named strategy tuned against the operating
// configuration's detector geometry and the victim's Stage-1 profile: the
// duty cycle ducks under the configuration's H_C streak at its MA window
// step, and the period mimic phase-locks to the profile's estimated period
// (PeriodMA is the shared DFT–ACF estimator's output in MA windows).
func evasionStrategy(name string, cfg Config, prof detect.Profile) (attack.Strategy, error) {
	step := float64(cfg.Detect.DW) * cfg.Detect.TPCM
	params := attack.StrategyParams{
		WindowStep: step,
		HC:         cfg.Detect.HC,
	}
	if prof.Periodic && prof.PeriodMA > 0 {
		params.VictimPeriod = float64(prof.PeriodMA) * step
	}
	return attack.NamedStrategy(name, params)
}

// evasionRun executes one detection run with the named strategy attached at
// the given peak intensity. The underlying sample path is identical to the
// steady DetectionRun with the same arguments — the strategy only modulates
// the contention envelope.
func (c Config) evasionRun(app string, kind attack.Kind, scheme Scheme, run int,
	strategy string, peak float64) (metrics.Outcome, error) {
	return c.detectionRun(app, kind, scheme, run,
		func(prof detect.Profile, sched attack.Schedule) (attack.Schedule, error) {
			st, err := evasionStrategy(strategy, c, prof)
			if err != nil {
				return attack.Schedule{}, err
			}
			sched.Strategy = st
			sched.Peak = peak
			return sched, nil
		})
}

// minFPRIndex is the fallback operating point when no ROC setting met the
// FPR budget: the lowest-FPR point (ties toward higher TPR, then earlier
// grid index).
func minFPRIndex(points []ROCPoint) int {
	best := -1
	for i, p := range points {
		if best < 0 || p.FPR < points[best].FPR ||
			(p.FPR == points[best].FPR && p.TPR > points[best].TPR) {
			best = i
		}
	}
	return best
}

// Evasion runs the evasion tournament over the given applications: the ROC
// tournament first fixes every scheme's operating point, then each named
// strategy attacks each scheme across both vectors and the peak grid, with
// margins pooled over apps × runs. All cells fan out onto the parallel
// engine and are pooled in input order, so the result is bit-identical at
// every Config.Parallel setting. Schemes marked periodic-only (SDS/P) are
// scored on the periodic applications.
func (c Config) Evasion(apps []string) ([]EvasionCurve, error) {
	curves, err := c.ROC(apps)
	if err != nil {
		return nil, err
	}
	c.profiles = newProfileCache()

	// Tune each scheme to its operating point.
	type schemeOp struct {
		s    rocScheme
		cfg  Config
		apps []string
		out  EvasionCurve
	}
	byScheme := make(map[Scheme]ROCCurve, len(curves))
	for _, curve := range curves {
		byScheme[curve.Scheme] = curve
	}
	var ops []schemeOp
	for _, s := range rocSchemes() {
		curve, ok := byScheme[s.scheme]
		if !ok {
			continue // no eligible app (SDS/P without periodic apps)
		}
		idx, budgeted := curve.Operating, true
		if idx < 0 {
			idx, budgeted = minFPRIndex(curve.Points), false
		}
		if idx < 0 {
			continue
		}
		point := curve.Points[idx]
		cfg := c
		if err := s.apply(&cfg, point.Threshold); err != nil {
			return nil, fmt.Errorf("%s %s=%v: %w", s.scheme, s.knob, point.Threshold, err)
		}
		schemeApps, err := rocApps(apps, s.periodicOnly)
		if err != nil {
			return nil, err
		}
		ops = append(ops, schemeOp{s: s, cfg: cfg, apps: schemeApps, out: EvasionCurve{
			Scheme:       s.scheme,
			Knob:         s.knob,
			Threshold:    point.Threshold,
			Budgeted:     budgeted,
			OperatingFPR: point.FPR,
		}})
	}

	strategies := attack.StrategyNames()
	type job struct {
		oi, si, ki, pi int
		app            string
		run            int
	}
	var jobs []job
	for oi, op := range ops {
		for si := range strategies {
			for ki := range evasionKinds {
				for pi := range evasionPeaks {
					for _, app := range op.apps {
						for run := 0; run < c.Runs; run++ {
							jobs = append(jobs, job{oi, si, ki, pi, app, run})
						}
					}
				}
			}
		}
	}

	outs, err := parallelMap(c.workers(), len(jobs), func(i int) (metrics.Outcome, error) {
		j := jobs[i]
		op := &ops[j.oi]
		out, err := op.cfg.evasionRun(j.app, evasionKinds[j.ki], op.s.scheme, j.run,
			strategies[j.si], evasionPeaks[j.pi])
		if err != nil {
			return metrics.Outcome{}, fmt.Errorf("%s %s %s peak=%v %s run %d: %w",
				op.s.scheme, strategies[j.si], evasionKinds[j.ki], evasionPeaks[j.pi], j.app, j.run, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Pool detections per (scheme, strategy, kind, peak) in input order.
	runsAt := make([][][][]int, len(ops))
	detAt := make([][][][]int, len(ops))
	for oi := range ops {
		runsAt[oi] = make([][][]int, len(strategies))
		detAt[oi] = make([][][]int, len(strategies))
		for si := range strategies {
			runsAt[oi][si] = make([][]int, len(evasionKinds))
			detAt[oi][si] = make([][]int, len(evasionKinds))
			for ki := range evasionKinds {
				runsAt[oi][si][ki] = make([]int, len(evasionPeaks))
				detAt[oi][si][ki] = make([]int, len(evasionPeaks))
			}
		}
	}
	for i, j := range jobs {
		runsAt[j.oi][j.si][j.ki][j.pi]++
		if outs[i].Detected {
			detAt[j.oi][j.si][j.ki][j.pi]++
		}
	}

	results := make([]EvasionCurve, 0, len(ops))
	for oi := range ops {
		out := ops[oi].out
		for si, strat := range strategies {
			for ki, kind := range evasionKinds {
				cell := EvasionCell{Strategy: strat, Kind: kind.String()}
				clean := true
				for pi, peak := range evasionPeaks {
					runs, det := runsAt[oi][si][ki][pi], detAt[oi][si][ki][pi]
					cell.Points = append(cell.Points, EvasionPoint{
						Peak:     peak,
						Runs:     runs,
						Detected: det,
						Rate:     safeRate(det, runs),
					})
					if clean && det == 0 {
						cell.Margin = peak
					} else {
						clean = false
					}
				}
				cell.FullRate = cell.Points[len(cell.Points)-1].Rate
				out.Cells = append(out.Cells, cell)
			}
		}
		results = append(results, out)
	}
	return results, nil
}
