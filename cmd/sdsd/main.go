// Command sdsd is the concurrent multi-VM detection server — the paper's
// provider-side deployment (§4): one SDS instance per physical server,
// monitoring every co-resident VM's PCM counter stream at once.
//
// Each protected VM (or its telemetry agent) opens one connection, sends
// the handshake line
//
//	sds/1 vm=<id> [app=<name>] [scheme=<sds|sdsb|sdsp|kstest|cusum|timefrag|ewmavar>] [profile=<seconds>]
//
// and then streams `t,access,miss` CSV lines. The server runs the
// profile→detect lifecycle per stream and answers on the same connection
// with `ok`, `alarm {json}` and `done` lines. Operational state is served
// over HTTP at -ops: GET /healthz and GET /metricsz.
//
//	# serve TCP streams, ops surface on :7032
//	sdsd -listen 127.0.0.1:7031 -ops 127.0.0.1:7032
//
//	# stream a recorded file at it
//	(echo "sds/1 vm=web-1 app=kmeans profile=60"; cat samples.csv) | nc 127.0.0.1 7031
//
// SIGINT/SIGTERM trigger a graceful drain: listeners close, buffered
// samples are processed, every client receives its `done` summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/memdos/sds/internal/server"
)

func main() {
	var (
		listen         = flag.String("listen", "127.0.0.1:7031", "TCP address for VM sample streams (empty to disable)")
		unixPath       = flag.String("unix", "", "unix socket path for VM sample streams (empty to disable)")
		ops            = flag.String("ops", "127.0.0.1:7032", "HTTP address for /healthz and /metricsz (empty to disable)")
		scheme         = flag.String("scheme", "sds", "default detection scheme: sds, sdsb, sdsp, kstest, cusum, timefrag or ewmavar")
		app            = flag.String("app", "monitored-vm", "default application name for profiles")
		profileSeconds = flag.Float64("profile-seconds", 900, "default Stage-1 profile window in stream seconds")
		shards         = flag.Int("shards", 0, "ingest shards and SO_REUSEPORT accept queues (0 = GOMAXPROCS)")
		fdLimit        = flag.Uint64("fd-limit", 131072, "raise RLIMIT_NOFILE to at least this many fds (best effort; 0 = leave as is)")
		quiet          = flag.Bool("quiet", false, "suppress per-stream log lines (scale runs: logging 100k streams costs more than ingesting them)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown drain may take before connections are force-closed")
	)
	flag.Parse()
	if err := run(*listen, *unixPath, *ops, *scheme, *app, *profileSeconds, *shards, *fdLimit, *quiet, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "sdsd:", err)
		os.Exit(1)
	}
}

func run(listen, unixPath, ops, scheme, app string, profileSeconds float64, shards int, fdLimit uint64, quiet bool, drainTimeout time.Duration) error {
	if listen == "" && unixPath == "" {
		return fmt.Errorf("need at least one stream listener (-listen or -unix)")
	}
	if fdLimit > 0 {
		if limit, err := server.EnsureFDLimit(fdLimit); err != nil {
			log.Printf("sdsd: %v (continuing with %d fds)", err, limit)
		}
	}
	opts := server.Options{
		Scheme:         scheme,
		App:            app,
		ProfileSeconds: profileSeconds,
		Shards:         shards,
		Logf:           log.Printf,
	}
	if quiet {
		opts.Logf = nil
	}
	srv := server.New(opts)

	serveErr := make(chan error, srv.ShardCount()+2)
	if listen != "" {
		listeners, sharded, err := server.ListenShards("tcp", listen, srv.ShardCount())
		if err != nil {
			return err
		}
		if sharded {
			log.Printf("sdsd: streaming on tcp %s (%d ingest shards, %d SO_REUSEPORT accept queues)",
				listeners[0].Addr(), srv.ShardCount(), len(listeners))
		} else {
			log.Printf("sdsd: streaming on tcp %s (%d ingest shards, single accept queue)",
				listeners[0].Addr(), srv.ShardCount())
		}
		for _, l := range listeners {
			l := l
			go func() { serveErr <- srv.Serve(l) }()
		}
	}
	if unixPath != "" {
		// A stale socket file from a previous run blocks the bind.
		os.Remove(unixPath)
		l, err := net.Listen("unix", unixPath)
		if err != nil {
			return err
		}
		defer os.Remove(unixPath)
		log.Printf("sdsd: streaming on unix %s", unixPath)
		go func() { serveErr <- srv.Serve(l) }()
	}
	var opsSrv *http.Server
	if ops != "" {
		l, err := net.Listen("tcp", ops)
		if err != nil {
			return err
		}
		log.Printf("sdsd: ops surface on http://%s", l.Addr())
		opsSrv = &http.Server{Handler: srv.Handler()}
		go func() {
			if err := opsSrv.Serve(l); err != nil && err != http.ErrServerClosed {
				serveErr <- err
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("sdsd: %v, draining (timeout %s)", s, drainTimeout)
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	if opsSrv != nil {
		opsSrv.Close()
	}
	m := srv.Metrics()
	log.Printf("sdsd: drained (%d samples, %d alarms over %d VMs)", m.TotalSamples, m.TotalAlarms, len(m.VMs))
	return err
}
