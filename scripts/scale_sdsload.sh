#!/bin/sh
# Scale-run the sdsd ingest plane, in two acts:
#
#  1. Throughput — launch one sdsd, drive it with VMS concurrent sdsload
#     streams (default 10000) in binary-frame mode, assert zero sample
#     loss, and print the sustained samples/sec. A second pass with the
#     same parameters over CSV frames gives the baseline the binary plane
#     is measured against.
#
#  2. Scale correctness — stream VMS100K VMs (default 100000) through a
#     bounded window of -inflight concurrent sockets, split over two load
#     processes rotating across eight loopback destination addresses, and
#     assert zero loss plus alarm-count parity against a single-process
#     reference run. The inflight bound exists because RLIMIT_NOFILE's
#     hard cap (20000 in the reference container) rules out 100k
#     concurrent sockets; the address rotation exists because 100k
#     connections' TIME_WAIT entries would exhaust a single destination's
#     ~28k ephemeral-port 4-tuple space mid-run.
#
#   scripts/scale_sdsload.sh                 # both acts
#   SDSD_VMS=2000 SDSD_100K_VMS=20000 scripts/scale_sdsload.sh  # rehearsal
#   SDSD_SKIP_100K=1 scripts/scale_sdsload.sh # throughput only
#
# Throughput streams are pre-rendered (-prebuild) so the timed window
# measures the transport and server ingest, not client-side sample
# generation. Each VM streams 60 virtual seconds at the Table 1 sampling
# interval with a 15 s Stage-1 profile window — long enough to clear the
# profiler's minimum window count and amortize the connection ramp, short
# enough that 10k profile windows fit comfortably in memory. The 100k act
# generates on the fly (pre-rendering 100k bodies while holding an
# inflight bound would decouple rendering from its socket anyway) with
# 30 s attacked streams — long enough past the H_C=30 detection streak
# that every VM alarms: it asserts accounting and detection parity, not
# peak rate.
#
# All processes run with GOGC=600: at 10k connections the default GC
# target spends a measurable slice of the single-digit-core budget on
# collection cycles, and the steady-state live set (profile windows +
# per-conn buffers) is small relative to host memory.
set -eu

ADDR=${SDSD_ADDR:-127.0.0.1:17041}
OPS=${SDSD_OPS:-127.0.0.1:17042}
VMS=${SDSD_VMS:-10000}
SECONDS_PER_VM=${SDSD_SECONDS:-60}
PROFILE=${SDSD_PROFILE:-15}
VMS100K=${SDSD_100K_VMS:-100000}
INFLIGHT=${SDSD_100K_INFLIGHT:-6000}
PORT100K=${SDSD_100K_PORT:-17043}
export GOGC=${GOGC:-600}

fdneed=$((VMS + 100))
if [ "$INFLIGHT" -gt "$VMS" ]; then fdneed=$((INFLIGHT + 100)); fi
if [ "$(ulimit -n)" -lt "$fdneed" ]; then
    # Best effort before failing: the hard limit often has headroom.
    ulimit -n "$fdneed" 2>/dev/null || {
        echo "scale: need $fdneed fds, have $(ulimit -n) (raise ulimit -n)" >&2
        exit 1
    }
fi

tmp=$(mktemp -d)
sdsd_pid=""
cleanup() {
    [ -n "$sdsd_pid" ] && kill "$sdsd_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/sdsd" ./cmd/sdsd
go build -o "$tmp/sdsload" ./cmd/sdsload

stop_sdsd() {
    kill -TERM "$sdsd_pid"
    wait "$sdsd_pid" || {
        echo "scale: sdsd exited non-zero on drain ($1)" >&2
        tail -20 "$2" >&2
        exit 1
    }
    sdsd_pid=""
}

run_pass() {
    frames=$1
    # -quiet: logging 10k per-stream done lines costs more than ingesting
    # them on a small-core host and skews the measured window.
    "$tmp/sdsd" -listen "$ADDR" -ops "$OPS" -profile-seconds "$PROFILE" -quiet \
        2>"$tmp/sdsd-$frames.log" &
    sdsd_pid=$!
    # sdsload retries its connections, so no explicit wait-for-listen is
    # needed; 100 retries ride out 10k streams racing one accept loop.
    "$tmp/sdsload" -addr "$ADDR" -vms "$VMS" -seconds "$SECONDS_PER_VM" \
        -profile-seconds "$PROFILE" -frames "$frames" -prebuild \
        -connect-retries 100 || {
        echo "scale: $frames pass failed; server log tail:" >&2
        tail -20 "$tmp/sdsd-$frames.log" >&2
        exit 1
    }
    stop_sdsd "$frames pass" "$tmp/sdsd-$frames.log"
}

run_pass bin
run_pass csv

if [ "${SDSD_SKIP_100K:-0}" = "1" ]; then
    echo "scale: ok (100k act skipped)"
    exit 0
fi

# --- Act 2: the 100k-stream correctness run -------------------------------

# Eight loopback destinations, all reaching one wildcard-bound sdsd.
ADDRS100K="127.0.0.1:$PORT100K"
for ip in 2 3 4 5 6 7 8; do
    ADDRS100K="$ADDRS100K,127.0.0.$ip:$PORT100K"
done

run_100k() {
    procs=$1
    tag=$2
    # profile=12: the Stage-1 profiler needs >= 1150 samples (20 MA
    # windows); at the Table 1 interval that is 11.5 virtual seconds.
    "$tmp/sdsd" -listen "0.0.0.0:$PORT100K" -ops "$OPS" -profile-seconds 12 \
        -shards 2 -quiet 2>"$tmp/sdsd-$tag.log" &
    sdsd_pid=$!
    # -attack-at 13: every stream comes under bus-locking attack right
    # after its profile window closes, so the alarm-parity assertion
    # below compares nonzero, detection-driven counts.
    "$tmp/sdsload" -addr "$ADDRS100K" -vms "$VMS100K" -seconds 30 \
        -profile-seconds 12 -frames bin -inflight "$INFLIGHT" -procs "$procs" \
        -attack-at 13 -connect-retries 100 \
        >"$tmp/load-$tag.txt" || {
        cat "$tmp/load-$tag.txt"
        echo "scale: $tag pass failed; server log tail:" >&2
        tail -20 "$tmp/sdsd-$tag.log" >&2
        exit 1
    }
    cat "$tmp/load-$tag.txt"
    stop_sdsd "$tag pass" "$tmp/sdsd-$tag.log"
}

run_100k 2 100k-procs2
run_100k 1 100k-ref

# sdsload already asserted zero loss per stream (sent == accounted) inside
# each pass; what only this script can check is that splitting the fleet
# over processes changed nothing the detector saw. Alarm totals are
# deterministic per seed, so the two passes must agree exactly.
alarms_multi=$(awk '/^sdsload:/ {print $(NF-1)}' "$tmp/load-100k-procs2.txt")
alarms_ref=$(awk '/^sdsload:/ {print $(NF-1)}' "$tmp/load-100k-ref.txt")
if [ -z "$alarms_multi" ] || [ "$alarms_multi" != "$alarms_ref" ]; then
    echo "scale: alarm parity broken — -procs 2 raised '${alarms_multi:-?}', single-process reference raised '${alarms_ref:-?}'" >&2
    exit 1
fi
echo "scale: 100k act ok — $VMS100K streams, zero loss, $alarms_multi alarms in both runs"

echo "scale: ok"
