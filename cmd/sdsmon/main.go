// Command sdsmon is a live demonstration of the detection system: it
// simulates a protected VM running an application, attaches the chosen
// detector to its PCM sample stream, injects a memory DoS attack at the
// requested time, and prints alarm transitions as they happen.
//
//	sdsmon -app facenet -attack buslock -at 60 -duration 180 -scheme sds
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/experiment"
	"github.com/memdos/sds/internal/pcm"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

func main() {
	var (
		app      = flag.String("app", workload.KMeans, "application to protect (bayes, svm, kmeans, pca, aggregation, join, scan, terasort, pagerank, facenet)")
		attackAt = flag.Float64("at", 60, "attack start time in virtual seconds (0 disables)")
		kindName = flag.String("attack", "buslock", "attack kind: buslock or cleanse")
		duration = flag.Float64("duration", 180, "total virtual run time in seconds")
		scheme   = flag.String("scheme", "sds", "detection scheme: sds, sdsb, sdsp, kstest, cusum, timefrag or ewmavar")
		seed     = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if err := run(*app, *kindName, *attackAt, *duration, *scheme, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "sdsmon:", err)
		os.Exit(1)
	}
}

func run(app, kindName string, attackAt, duration float64, schemeName string, seed uint64) error {
	kind := attack.BusLock
	switch kindName {
	case "buslock":
	case "cleanse":
		kind = attack.Cleanse
	default:
		return fmt.Errorf("unknown attack kind %q", kindName)
	}
	scheme, err := detect.LookupScheme(schemeName)
	if err != nil {
		return err
	}

	cfg := experiment.DefaultConfig()
	cfg.Seed = seed

	fmt.Printf("profiling %s (Stage 1, %.0f s of attack-free telemetry)...\n", app, cfg.ProfileSeconds)
	prof, det, err := cfg.BuildDetector(app, experiment.Scheme(scheme.Name), seed)
	if err != nil {
		return err
	}
	fmt.Printf("profile: μ_access=%.4g σ_access=%.4g", prof.MeanAccess, prof.StdAccess)
	if prof.Periodic {
		fmt.Printf(" periodic (period %d MA windows)", prof.PeriodMA)
	}
	fmt.Println()

	model, err := workload.NewModel(workload.MustAppProfile(app), randx.DeriveString(seed, app+"/sdsmon"))
	if err != nil {
		return err
	}
	sched := attack.Schedule{Kind: kind, Start: attackAt, Ramp: 10}
	if attackAt <= 0 {
		sched.Kind = attack.None
	}

	tpcm := cfg.Detect.TPCM
	n := pcm.SampleCount(duration, tpcm)
	wasAlarmed := false
	for i := 0; i < n; i++ {
		now := float64(i+1) * tpcm
		if sched.Kind != attack.None && now-tpcm < attackAt && now >= attackAt {
			fmt.Printf("[%7.2fs] >>> %v attack launched (ramp %.0f s)\n", now, kind, sched.Ramp)
		}
		a, m := model.Sample(tpcm, sched.Env(now, detect.Collecting(det)))
		det.Observe(pcm.Sample{T: now, Access: a, Miss: m})
		if det.Alarmed() != wasAlarmed {
			wasAlarmed = det.Alarmed()
			if wasAlarmed {
				alarms := det.Alarms()
				last := alarms[len(alarms)-1]
				fmt.Printf("[%7.2fs] ALARM (%s): %s\n", now, last.Detector, last.Reason)
			} else {
				fmt.Printf("[%7.2fs] alarm cleared\n", now)
			}
		}
	}
	fmt.Printf("run complete: %d samples, %d alarm events\n", n, len(det.Alarms()))
	return nil
}
