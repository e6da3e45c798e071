package cloudsim

import (
	"reflect"
	"testing"

	sds "github.com/memdos/sds"
	"github.com/memdos/sds/internal/attack"
	"github.com/memdos/sds/internal/detect"
	"github.com/memdos/sds/internal/randx"
	"github.com/memdos/sds/internal/workload"
)

// TestEngineReproducesLockstepSimulate is the equivalence property of the
// event-driven engine: at exact fidelity, a single-host single-VM scenario
// with one scheduled attacker reproduces the lockstep Simulate loop's
// alarms BIT-IDENTICALLY — same alarm times, metrics and reason strings —
// across the paper grid of applications, attack kinds and schemes. This is
// what licenses replacing per-sample lockstep simulation with the event
// engine everywhere else.
func TestEngineReproducesLockstepSimulate(t *testing.T) {
	const (
		seed           = 20260807
		profileSeconds = 400
		seconds        = 240
		attackStart    = 60
		attackRamp     = 10
	)
	cfg := detect.DefaultConfig()
	kinds := []attack.Kind{attack.None, attack.BusLock, attack.Cleanse}
	apps := workload.AppNames()
	if testing.Short() {
		apps = []string{workload.KMeans, workload.FaceNet}
	}

	totalAlarms := 0
	for _, app := range apps {
		for _, kind := range kinds {
			for _, scheme := range []string{"SDS", "KStest"} {
				t.Run(app+"/"+kind.String()+"/"+scheme, func(t *testing.T) {
					// Reference: the lockstep per-sample loop, built with
					// the engine's exact stream-labelling conventions.
					refDet, err := newReferenceDetector(t, scheme, app, seed, profileSeconds, cfg)
					if err != nil {
						t.Fatal(err)
					}
					model, err := workload.NewModel(workload.MustAppProfile(app), randx.DeriveString(seed, "vm0/model"))
					if err != nil {
						t.Fatal(err)
					}
					sched := attack.Schedule{Kind: kind, Start: attackStart, Ramp: attackRamp}
					want, err := sds.Simulate(model, refDet, cfg, sds.SimulateOptions{Seconds: seconds, Attack: sched})
					if err != nil {
						t.Fatal(err)
					}

					// Event-driven engine, exact fidelity, same shape.
					sc := Scenario{
						Seed:           seed,
						Hosts:          1,
						VMsPerHost:     1,
						Seconds:        seconds,
						Fidelity:       FidelityExact,
						Apps:           []string{app},
						Scheme:         scheme,
						ProfileSeconds: profileSeconds,
						AttackStart:    attackStart,
						AttackRamp:     attackRamp,
					}
					if kind != attack.None {
						sc.Attackers = 1
						sc.AttackKind = kind.String()
					}
					e, err := newEngine(sc)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := e.run(); err != nil {
						t.Fatal(err)
					}
					got := e.vms[0].det.Alarms()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("event engine diverges from lockstep Simulate:\n got %+v\nwant %+v", got, want)
					}
					totalAlarms += len(want)
				})
			}
		}
	}
	if totalAlarms == 0 {
		t.Fatal("equivalence vacuous: no cell raised any alarm")
	}
}

// newReferenceDetector builds the lockstep reference detector exactly as
// the engine would: same Stage-1 stream label, same configs.
func newReferenceDetector(t *testing.T, scheme, app string, seed uint64, profileSeconds float64, cfg detect.Config) (detect.Detector, error) {
	t.Helper()
	if scheme == "KStest" {
		return detect.NewKSTest(detect.DefaultKSTestConfig())
	}
	prof, err := Stage1Profile(app, seed, profileSeconds, cfg)
	if err != nil {
		return nil, err
	}
	return detect.NewSDS(prof, cfg)
}
