#!/usr/bin/env bash
# picgate load harness: measures serving throughput in two topologies and
# writes the comparison, with the commit, Go version, GOMAXPROCS and host
# cores it ran on, to BENCH_serve.json —
#
#   single_node : one picserve, driven directly (no gate);
#   sharded_3   : three picserve shards behind picgate.
#
# Both runs use the same key count, concurrency, and duration, with a
# warmup pass so measured traffic hits trained models. The sharded run's
# per-shard breakdown shows the consistent-hash spread and cache locality
# (every key trains on exactly one shard).
#
#   DURATION=10s CONCURRENCY=8 KEYS=6 ./scripts/picgate_load.sh
#
# Needs: go, curl, python3. Everything binds :0.
set -euo pipefail

cd "$(dirname "$0")/.."

DURATION=${DURATION:-10s}
CONCURRENCY=${CONCURRENCY:-8}
KEYS=${KEYS:-6}
OUT=${OUT:-BENCH_serve.json}

workdir=$(mktemp -d)
: >"$workdir/pids"

# Pids live in a file, not a shell array: start_shard must not run inside a
# command substitution (a subshell would silently lose the pid and leak the
# process past cleanup — and a leaked fleet skews every later bench run).
cleanup() {
    local p pids=""
    [[ -f "$workdir/pids" ]] && pids=$(cat "$workdir/pids")
    for p in $pids; do
        kill -TERM "$p" 2>/dev/null || true
    done
    sleep 0.3
    for p in $pids; do
        kill -KILL "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for f in "$workdir"/*.log; do
        echo "--- $f ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

echo "== build"
go build -o "$workdir/picserve" ./cmd/picserve
go build -o "$workdir/picgate" ./cmd/picgate

start_shard() { # index; sets $shard_addr (no subshell — the pid must persist)
    local i=$1
    "$workdir/picserve" \
        -listen 127.0.0.1:0 \
        -trace golden=testdata/golden/trace.bin \
        >"$workdir/shard$i.log" 2>&1 &
    shard_pid=$!
    echo $shard_pid >>"$workdir/pids"
    disown
    shard_addr=""
    for _ in $(seq 1 100); do
        shard_addr=$(sed -n 's#.*serving on http://\([^ ]*\) .*#\1#p' "$workdir/shard$i.log" | head -1)
        [[ -n "$shard_addr" ]] && break
        sleep 0.1
    done
    [[ -n "$shard_addr" ]] || fail "shard $i never logged its address"
}

wait_ready() { # base_url
    for _ in $(seq 1 100); do
        curl -fsS -o /dev/null "$1/readyz" 2>/dev/null && return 0
        sleep 0.1
    done
    fail "$1/readyz never returned 200"
}

echo "== single-node baseline"
start_shard 0
single_addr=$shard_addr
single_pid=$shard_pid
wait_ready "http://$single_addr"
"$workdir/picgate" -load \
    -target "http://$single_addr" \
    -duration "$DURATION" -concurrency "$CONCURRENCY" -keys "$KEYS" \
    -scenario golden -ranks 8,16 \
    -o "$workdir/single.json" || fail "single-node load run failed"

# The baseline shard must not stay up competing for CPU with the fleet —
# on small hosts that skews the sharded measurement.
kill -TERM "$single_pid" 2>/dev/null || true

echo "== 3-shard fleet behind picgate"
backends=""
for i in 1 2 3; do
    start_shard "$i"
    backends="${backends:+$backends,}$shard_addr"
done
"$workdir/picgate" \
    -listen 127.0.0.1:0 \
    -backends "$backends" \
    >"$workdir/picgate.log" 2>&1 &
echo $! >>"$workdir/pids"
disown
gate_addr=""
for _ in $(seq 1 100); do
    gate_addr=$(sed -n 's#.*gating on http://\([^ ]*\) .*#\1#p' "$workdir/picgate.log" | head -1)
    [[ -n "$gate_addr" ]] && break
    sleep 0.1
done
[[ -n "$gate_addr" ]] || fail "picgate never logged its address"
wait_ready "http://$gate_addr"
"$workdir/picgate" -load \
    -target "http://$gate_addr" \
    -duration "$DURATION" -concurrency "$CONCURRENCY" -keys "$KEYS" \
    -scenario golden -ranks 8,16 \
    -o "$workdir/sharded.json" || fail "sharded load run failed"

echo "== write $OUT"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
    commit="$commit-dirty"
fi
python3 - "$workdir/single.json" "$workdir/sharded.json" "$OUT" \
    "$DURATION" "$CONCURRENCY" "$KEYS" "$commit" "$(go env GOVERSION)" <<'PY' || fail "merging stats failed"
import json, os, sys
single = json.load(open(sys.argv[1]))
sharded = json.load(open(sys.argv[2]))
doc = {
    "bench": "picgate serving throughput",
    "config": {
        "duration": sys.argv[4],
        "concurrency": int(sys.argv[5]),
        "keys": int(sys.argv[6]),
        "scenario": "golden fixture, ranks 8+16, fast models, warmed",
        # Sharding wins require cores for the shards to spread over; on a
        # 1-core host the comparison measures coordination overhead instead.
        "host_cores": os.cpu_count(),
        # Every process runs with Go's default GOMAXPROCS unless the
        # environment sets it: the CPUs this process may run on.
        "gomaxprocs": int(os.environ.get("GOMAXPROCS") or len(os.sched_getaffinity(0))),
        "go_version": sys.argv[8],
        "commit": sys.argv[7],
    },
    "single_node": single,
    "sharded_3": sharded,
}
if single.get("rps"):
    doc["speedup_rps"] = round(sharded["rps"] / single["rps"], 3)
with open(sys.argv[3], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
for name, s in (("single", single), ("sharded", sharded)):
    print(f"   {name}: {s['rps']:.0f} rps, p50 {s['p50_ms']:.2f}ms, "
          f"p99 {s['p99_ms']:.2f}ms, errors {s['errors']}")
shards = sharded.get("shards", {})
spread = {k: v["requests"] for k, v in shards.items()}
print("   shard spread:", spread)
rate = sharded.get("error_rate", 0.0)
if rate >= 0.01:
    sys.exit(f"sharded error rate {rate:.2%} >= 1%; fleet was unhealthy during measurement")
PY

echo "PASS: wrote $OUT"
