// Command detectd runs a detection scheme over a PCM counter stream read
// from stdin — the single-VM deployment shape of the paper's system: a
// hypervisor-side process consuming `t,access,miss` CSV lines (easily
// produced from Intel PCM or a perf wrapper) and emitting alarm events.
// For many VMs at once, see cmd/sdsd, which serves the same lifecycle
// per connection; detectd is a thin stdin wrapper over that shared
// ingest code (internal/server.Session).
//
// The first -profile-seconds of the stream serve as the Stage-1 profile
// (the VM must be known attack-free during that window, e.g. right after
// placement); everything after is monitored.
//
//	# replay a recorded stream
//	detectd -scheme sds < samples.csv
//
//	# record a simulated stream, then detect over it
//	detectd -record 120 -app facenet > samples.csv
//	detectd -scheme sdsp < samples.csv
//
// With -json each alarm is emitted as one JSON object per line; the final
// summary goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/memdos/sds"
	"github.com/memdos/sds/internal/feed"
	"github.com/memdos/sds/internal/server"
)

func main() {
	var (
		scheme         = flag.String("scheme", "sds", "detection scheme: sds, sdsb, sdsp, kstest, cusum, timefrag or ewmavar")
		profileSeconds = flag.Float64("profile-seconds", 900, "leading stream seconds used as the Stage-1 profile")
		appName        = flag.String("app", "monitored-vm", "application name for the profile")
		jsonOut        = flag.Bool("json", false, "emit alarms as JSON lines")
		record         = flag.Float64("record", 0, "instead of detecting, record this many seconds of simulated telemetry for -app to stdout")
		attackAt       = flag.Float64("attack-at", 0, "with -record: start a bus-locking attack at this time (0 = none)")
		seed           = flag.Uint64("seed", 1, "simulation seed for -record")
	)
	flag.Parse()
	var err error
	if *record > 0 {
		err = runRecord(*appName, *record, *attackAt, *seed)
	} else {
		err = runDetect(os.Stdin, os.Stdout, *scheme, *appName, *profileSeconds, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "detectd:", err)
		os.Exit(1)
	}
}

// runRecord writes a simulated telemetry stream to stdout in feed format.
func runRecord(app string, seconds, attackAt float64, seed uint64) error {
	_, err := server.WriteSimulatedStream(os.Stdout, server.ReplaySpec{
		App:      app,
		Seconds:  seconds,
		AttackAt: attackAt,
		Seed:     seed,
	})
	return err
}

// runDetect profiles on the stream head and detects over the rest. It is a
// stdin front-end over the same Session lifecycle sdsd runs per connection.
func runDetect(in io.Reader, out io.Writer, scheme, app string, profileSeconds float64, jsonOut bool) error {
	enc := json.NewEncoder(out)
	sess, err := server.NewSession(server.StreamSpec{
		VM:             "stdin",
		App:            app,
		Scheme:         scheme,
		ProfileSeconds: profileSeconds,
		OnProfile: func(p sds.Profile, n int) {
			fmt.Fprintf(os.Stderr, "detectd: profiled %s over %d samples (μ_access=%.4g σ=%.4g periodic=%v)\n",
				app, n, p.MeanAccess, p.StdAccess, p.Periodic)
		},
		OnAlarm: func(a sds.Alarm) error {
			if jsonOut {
				return enc.Encode(server.NewAlarmEvent(a))
			}
			_, err := fmt.Fprintf(out, "[%10.2fs] ALARM %s (%s): %s\n", a.T, a.Detector, a.Metric, a.Reason)
			return err
		},
	})
	if err != nil {
		return err
	}
	reader := feed.NewReader(in)
	for {
		s, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := sess.Observe(s); err != nil {
			return err
		}
	}
	stats, err := sess.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "detectd: %d samples monitored, %d dropped as malformed, %d alarms, final state alarmed=%v\n",
		stats.Monitored, stats.Dropped, stats.Alarms, stats.Alarmed)
	return nil
}
