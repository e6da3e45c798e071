// Cloud-server scenario: the paper's evaluation testbed in miniature. A
// protected VM runs TeraSort while the provider's hypervisor runs all four
// detection schemes side by side on the same PCM stream; an LLC-cleansing
// attack starts halfway through. The example prints a timeline comparing
// when each scheme alarms — including the KStest baseline's false alarms
// before the attack even begins (the paper's §3.2 observation).
//
//	go run ./examples/cloudserver
package main

import (
	"fmt"
	"log"
	"sort"

	"github.com/memdos/sds"
)

func main() {
	cfg := sds.DefaultConfig()
	const (
		app      = sds.TeraSort
		seed     = 42
		duration = 600.0
		attackAt = 300.0
	)

	profile, err := sds.CollectProfile(app, seed, 900, cfg)
	if err != nil {
		log.Fatal(err)
	}

	combined, err := sds.NewSDS(profile, cfg)
	if err != nil {
		log.Fatal(err)
	}
	boundary, err := sds.NewSDSB(profile, cfg)
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := sds.NewKSTest(sds.DefaultKSTestConfig())
	if err != nil {
		log.Fatal(err)
	}

	// All detectors observe the same protected VM. Each gets its own model
	// instance seeded identically so the streams are identical except for
	// KStest's throttling windows.
	type entry struct {
		name string
		det  sds.Detector
	}
	detectors := []entry{
		{"SDS", combined},
		{"SDS/B", boundary},
		{"KStest", baseline},
	}
	schedule := sds.AttackSchedule{Kind: sds.CleanseAttack, Start: attackAt, Ramp: 12}

	type event struct {
		t      float64
		scheme string
		what   string
	}
	var events []event
	for _, d := range detectors {
		vm, err := sds.NewApplication(app, seed+1)
		if err != nil {
			log.Fatal(err)
		}
		alarms, err := sds.Simulate(vm, d.det, cfg, sds.SimulateOptions{
			Seconds: duration,
			Attack:  schedule,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, a := range alarms {
			what := "DETECTION"
			if a.T < attackAt {
				what = "false alarm"
			}
			events = append(events, event{t: a.T, scheme: d.name, what: what + ": " + a.Reason})
		}
	}

	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	fmt.Printf("protected VM: %s; %v attack at %.0f s\n", app, schedule.Kind, attackAt)
	fmt.Println("timeline:")
	for _, e := range events {
		fmt.Printf("  [%7.2fs] %-7s %s\n", e.t, e.scheme, e.what)
	}
}
