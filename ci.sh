#!/bin/sh
# ci.sh — the repository's check suite: formatting, vet, the full test
# suite under the race detector (the engine's sweeps and the serving
# daemon are concurrent, so every CI run doubles as a concurrency
# audit), coverage floors on the core packages, short fuzz smoke runs,
# the differential oracle (including the serve-vs-direct HTTP path),
# the performance-regression gate (bpbench -quick against the committed
# BENCH.json baseline), and a live boot of the bpservd daemon driven by
# bpload.
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== router body recycling under -race =="
# A pooled request-body buffer that goes back to the pool while the
# transport still reads it shows up only under some schedules, so one
# -race pass can miss it; twenty give the detector twenty schedules.
go test -race -count=20 -run 'TestProxyBodyRecycleSafety' ./internal/router

echo "== bench module =="
# bench/ is its own module, so the root vet and test stop at its go.mod;
# vetting it here catches a core or trace API change that breaks the
# benchmark before a benchmark run does. Only the fast unit tests run:
# TestWorkloadsSmoke, which boots daemons and runs every workload, is
# left out.
(cd bench && go vet ./... && go test -run 'Test(WindowRate|QuartilesMatchPython|TailPercentileNeedsTenSamplesBeyond|MetricsDelta|ScheduleHashFollowsSeed)' ./...)

echo "== coverage floors =="
# One coverage pass over the whole module; every floor is parsed out of
# the same run instead of re-testing floor packages one at a time.
covfile=$(mktemp)
go test -cover ./... >"$covfile"
cat "$covfile"

# cov_floor PKG FLOOR fails if PKG's statement coverage from the pass
# above is below FLOOR percent.
cov_floor() {
	pkg=$1
	floor=$2
	pct=$(awk -v pkg="$pkg" '$1 == "ok" && $2 == pkg {
		for (i = 3; i <= NF; i++)
			if ($i ~ /^[0-9.]+%$/) { gsub(/%/, "", $i); print $i }
	}' "$covfile")
	if [ -z "$pct" ]; then
		echo "no coverage reported for $pkg" >&2
		exit 1
	fi
	if [ "$(awk "BEGIN{print ($pct < $floor) ? 1 : 0}")" = 1 ]; then
		echo "coverage for $pkg is ${pct}%, below the ${floor}% floor" >&2
		exit 1
	fi
	echo "coverage $pkg: ${pct}% (floor ${floor}%)"
}

cov_floor repro/internal/bpred 90
cov_floor repro/internal/core 85
cov_floor repro/internal/sim 85
cov_floor repro/internal/serve 80
cov_floor repro/internal/snap 85
cov_floor repro/internal/harness 85
cov_floor repro/internal/results 75
cov_floor repro/internal/charz 85
cov_floor repro/internal/charz/probe 85
cov_floor repro/internal/telemetry 85
cov_floor repro/internal/pipeline 90
cov_floor repro/internal/isa 85
cov_floor repro/internal/trace 88
cov_floor repro/internal/emu 88
cov_floor repro/internal/record 90
cov_floor repro/internal/router 75
cov_floor repro/internal/oracle 85
rm -f "$covfile"

echo "== fuzz smoke =="
# Each fuzz target gets a short randomized run beyond its seed corpus;
# -run='^$' skips the unit tests already run above. Minimizing a
# new-coverage input defaults to 60 s, longer than the whole run: on
# FuzzCharacterize's whole-trace seeds and FuzzPostEvents the workers
# spent most of their 10 s minimizing at 0 execs/s. A 100-exec bound
# keeps each run fuzzing (a 1 s bound still let minimizing eat most of
# FuzzCharacterize's run).
go test -run='^$' -fuzz=FuzzParse -fuzztime=10s -fuzzminimizetime=100x ./internal/sim
go test -run='^$' -fuzz=FuzzPredictorVsReference -fuzztime=10s -fuzzminimizetime=100x ./internal/oracle
go test -run='^$' -fuzz=FuzzTraceRoundTrip -fuzztime=10s -fuzzminimizetime=100x ./internal/oracle
go test -run='^$' -fuzz=FuzzCharacterize -fuzztime=10s -fuzzminimizetime=100x ./internal/charz
go test -run='^$' -fuzz=FuzzSnapshotRoundTrip -fuzztime=10s -fuzzminimizetime=100x ./internal/snap
go test -run='^$' -fuzz=FuzzParse -fuzztime=10s -fuzzminimizetime=100x ./internal/asm
go test -run='^$' -fuzz=FuzzCompile -fuzztime=10s -fuzzminimizetime=100x ./internal/lang
go test -run='^$' -fuzz=FuzzPostEvents -fuzztime=10s -fuzzminimizetime=100x ./internal/serve

echo "== oracle =="
go run ./cmd/oracle -events 100000

echo "== bpchar probe gate =="
# The black-box prober is the predictors' second-opinion oracle: every
# registry kind must probe back to the structure its spec claims
# (history depth, table size, hysteresis) through the public interface
# alone. probe -all exits nonzero on any mismatch.
go run ./cmd/bpchar probe -all
# Smoke the other two subcommands end to end: characterize a synthetic
# point and solve/generate a targeted one.
go run ./cmd/bpchar characterize -w 'syn:lag:k=6:eps=0.02' >/dev/null
go run ./cmd/bpchar generate -rate 0.5 -cond 0.3 -depth 6 >/dev/null

echo "== bench smoke =="
# One iteration of each feed benchmark: catches a broken or panicking
# fast path without paying for a real measurement.
go test -run='^$' -bench BenchmarkFeed -benchtime 1x .
# The same for the timing model (a full run and a replay alone) and for
# the trace front end (trace.Collect, and the derive pass alone over a
# finished recording).
go test -run '^$' -bench 'Benchmark(Run|Replay|Derive)$' -benchtime 1x ./internal/pipeline

echo "== bpbench regression gate =="
# Quick grid against the committed baseline; any metric more than 25%
# worse fails CI. The quick grid includes the serve HTTP feed benchmarks
# (serial and multi-client), so a serving-path regression trips the
# same gate as a feed-loop one. The fresh artifact is left in a temp file for
# inspection (and for refreshing BENCH.json after intentional changes).
benchout=$(mktemp /tmp/BENCH.ci.XXXXXX.json)
go run ./cmd/bpbench -quick -o "$benchout" -compare BENCH.json -threshold 0.25
echo "bpbench artifact: $benchout"

echo "== bpstats diff gate =="
# Record a fresh quick run of E5 (whose quick grid equals its full grid)
# into a throwaway store, then require a zero-delta diff against the
# committed results/*.csv views: the experiment engine, the results
# store, and the diff gate all have to agree for this to pass.
statsdir=$(mktemp -d)
go build -o "$statsdir" ./cmd/experiments ./cmd/bpstats
"$statsdir/experiments" -quick -id E5 -store "$statsdir/runs" >/dev/null
"$statsdir/bpstats" list -store "$statsdir/runs"
"$statsdir/bpstats" diff -store "$statsdir/runs" -csv results -id E5 -threshold 0 latest
rm -rf "$statsdir"

echo "== serve smoke =="
# Boot the daemon on a random port, walk the API with bpload -smoke
# (health, predictor listing, create session, post two P64T batches,
# read metrics, delete with a byte-identical metrics check, /metrics
# families), push a short concurrent load with verification, then
# require a clean SIGTERM shutdown.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"; kill "$servepid" 2>/dev/null || true' EXIT
go build -o "$smokedir" ./cmd/bpservd ./cmd/bpload
"$smokedir/bpservd" -addr 127.0.0.1:0 -portfile "$smokedir/port" -quiet &
servepid=$!
tries=0
while [ ! -s "$smokedir/port" ]; do
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "bpservd never wrote its portfile" >&2
		exit 1
	fi
	if ! kill -0 "$servepid" 2>/dev/null; then
		echo "bpservd exited before listening" >&2
		exit 1
	fi
	sleep 0.1
done
addr=$(cat "$smokedir/port")
"$smokedir/bpload" -addr "$addr" -smoke
"$smokedir/bpload" -addr "$addr" -sessions 4 -events 100000 -batch 2048 -verify
kill -TERM "$servepid"
if ! wait "$servepid"; then
	echo "bpservd shut down uncleanly" >&2
	exit 1
fi

echo "== cluster smoke =="
# Two bpservd backends with a shared spill directory behind bprouter;
# bpload drives the cluster in -cluster mode (explicit session IDs,
# per-batch seqs, per-branch metrics, an injected X-Request-Id per
# batch) and SIGTERMs mid-run the first backend that holds one of its
# sessions; the other is the survivor. The gate passes only if:
#   - the run finishes with zero errors AND the surviving backend's
#     metrics match an uninterrupted local replay (zero lost state);
#   - an injected request ID appears in the router log AND in a backend
#     log, and specifically a batch the router RETRIED after the kill
#     carries the same ID into the surviving backend's log — the
#     cross-tier trace survives failover;
#   - the per-branch stats endpoint serves a ranked report through the
#     router for a kept session;
#   - bptop -once renders a fleet frame against both live tiers, which
#     also holds each /metrics page to the strict exposition lint.
# On a failure the logs are printed before the cleanup deletes them, so
# a failed check can be traced to the tier that dropped the request.
clusterdir=$(mktemp -d)
trap 'status=$?
      if [ "$status" -ne 0 ]; then
          for f in load.out rt.log b1.log b2.log; do
              [ -f "$clusterdir/$f" ] || continue
              echo "--- last 40 lines of $f ---" >&2
              tail -n 40 "$clusterdir/$f" >&2
          done
      fi
      rm -rf "$smokedir" "$clusterdir"
      kill "$servepid" "$b1pid" "$b2pid" "$rtpid" 2>/dev/null || true' EXIT
go build -o "$clusterdir" ./cmd/bprouter ./cmd/bptop
mkdir "$clusterdir/spill"
"$smokedir/bpservd" -addr 127.0.0.1:0 -portfile "$clusterdir/b1.port" \
	-spill "$clusterdir/spill" >"$clusterdir/b1.log" 2>&1 &
b1pid=$!
"$smokedir/bpservd" -addr 127.0.0.1:0 -portfile "$clusterdir/b2.port" \
	-spill "$clusterdir/spill" >"$clusterdir/b2.log" 2>&1 &
b2pid=$!
tries=0
while [ ! -s "$clusterdir/b1.port" ] || [ ! -s "$clusterdir/b2.port" ]; do
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "cluster backends never wrote portfiles" >&2
		exit 1
	fi
	sleep 0.1
done
"$clusterdir/bprouter" -addr 127.0.0.1:0 -portfile "$clusterdir/rt.port" \
	-backends "http://$(cat "$clusterdir/b1.port"),http://$(cat "$clusterdir/b2.port")" \
	-health-interval 200ms >"$clusterdir/rt.log" 2>&1 &
rtpid=$!
tries=0
while [ ! -s "$clusterdir/rt.port" ]; do
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "bprouter never wrote its portfile" >&2
		exit 1
	fi
	sleep 0.1
done
rtaddr=$(cat "$clusterdir/rt.port")
b1addr=$(cat "$clusterdir/b1.port")
b2addr=$(cat "$clusterdir/b2.port")
"$smokedir/bpload" -addr "$rtaddr" -cluster -verify -per-branch -keep \
	-rid-prefix trace -sessions 6 -events 300000 -batch 2048 \
	-kill "$b1addr=$b1pid,$b2addr=$b2pid" -kill-after 0.4 >"$clusterdir/load.out" 2>&1
cat "$clusterdir/load.out"
case "$(sed -n 's/^killed backend  \([^ ]*\) .*/\1/p' "$clusterdir/load.out")" in
"$b1addr") deadpid=$b1pid survivor=b2 survpid=$b2pid survaddr=$b2addr ;;
"$b2addr") deadpid=$b2pid survivor=b1 survpid=$b1pid survaddr=$b1addr ;;
*)
	echo "bpload killed no backend" >&2
	exit 1
	;;
esac
wait "$deadpid" || true # SIGTERMed by bpload; must already be gone

echo "-- request-id trace across failover --"
# Every batch carried a deterministic trace-s<worker>-q<seq> ID; the
# same ID must be visible at both tiers.
for f in rt.log $survivor.log; do
	if ! grep -q 'rid=trace-s' "$clusterdir/$f"; then
		echo "no injected request ID reached $f" >&2
		exit 1
	fi
done
# A batch the router retried around the dead backend keeps its ID on
# the redelivery, so the surviving backend logs the very same rid.
retry_rid=$(sed -n 's/.*retrying.*rid=\(trace-s[0-9]*-q[0-9]*\).*/\1/p' \
	"$clusterdir/rt.log" | head -n 1)
if [ -z "$retry_rid" ]; then
	echo "router never logged a retried batch request ID" >&2
	exit 1
fi
if ! grep -q "rid=$retry_rid" "$clusterdir/$survivor.log"; then
	echo "retried request ID $retry_rid missing from surviving backend log" >&2
	exit 1
fi
echo "request ID $retry_rid traced router -> surviving backend"

echo "-- per-branch stats through the router --"
stats=$(curl -sf "http://$rtaddr/v1/sessions/bpload-0/stats?k=3")
echo "$stats"
for want in '"per_branch":true' '"pc":"0x' '"mispredict_rate"'; do
	case "$stats" in
	*"$want"*) ;;
	*)
		echo "stats report missing $want" >&2
		exit 1
		;;
	esac
done

echo "-- bptop fleet frame (lints both tiers) --"
frame=$("$clusterdir/bptop" -once -k 5 \
	-targets "$rtaddr,$survaddr")
echo "$frame"
for want in '2/2 targets up' 'bprouter' 'bpservd' '0x'; do
	case "$frame" in
	*"$want"*) ;;
	*)
		echo "bptop frame missing $want" >&2
		exit 1
		;;
	esac
done

kill -TERM "$rtpid" "$survpid"
if ! wait "$survpid"; then
	echo "surviving backend shut down uncleanly" >&2
	exit 1
fi
wait "$rtpid" || true

echo "CI OK"
