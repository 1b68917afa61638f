#!/usr/bin/env bash
# sweep end-to-end smoke: the capacity-planning engine must answer the same
# question identically through both front ends. It runs `predict -sweep`
# over the committed golden trace (twice, and at different worker counts —
# the JSON must be byte-identical), boots picserve, POSTs the same grid to
# /v1/optimize twice (the repeat, answered from the workload memo, must
# return a byte-identical sweep), and diffs the ranked frontiers: fastest,
# knee, knee score, and every frontier point must agree exactly between CLI
# and service. Finishes with a SIGTERM drain. CI runs this; also a local check:
#
#   ./scripts/sweep_smoke.sh
#
# Needs: go, curl, python3. No fixed port — picserve binds :0 and the
# script scrapes the bound address from its log line.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
logfile="$workdir/picserve.log"
pid=""

cleanup() {
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    echo "--- picserve log ---" >&2
    cat "$logfile" >&2 || true
    exit 1
}

# One grid, both front ends. Matches the golden fixture's platform: filter
# 0.00428 (hele-shaw), 16384 elements, N=4, quartz, fast seed-1 models.
SWEEP_RANKS="8-32:x2"
FILTER=0.00428
TOP=6

echo "== build"
go build -o "$workdir/predict" ./cmd/predict
go build -o "$workdir/picserve" ./cmd/picserve

echo "== CLI sweep (twice, plus single-worker) must be byte-identical"
sweep_cli() {
    "$workdir/predict" -trace testdata/golden/trace.bin -sweep \
        -sweep-ranks "$SWEEP_RANKS" -mappings bin -machines quartz \
        -model-kinds synthetic -filter "$FILTER" -fast -top "$TOP" \
        -sweep-workers "$1" -json
}
sweep_cli 4 >"$workdir/cli.json" || fail "predict -sweep failed"
sweep_cli 4 >"$workdir/cli2.json" || fail "repeat predict -sweep failed"
sweep_cli 1 >"$workdir/cli1w.json" || fail "single-worker predict -sweep failed"
cmp -s "$workdir/cli.json" "$workdir/cli2.json" \
    || fail "two identical sweeps produced different JSON"
cmp -s "$workdir/cli.json" "$workdir/cli1w.json" \
    || fail "-sweep-workers 1 changed the sweep JSON (worker-count leak)"

echo "== start picserve on the golden fixture"
"$workdir/picserve" \
    -listen 127.0.0.1:0 \
    -trace golden=testdata/golden/trace.bin \
    >"$logfile" 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*serving on http://\([^ ]*\) .*#\1#p' "$logfile" | head -1)
    [[ -n "$addr" ]] && break
    kill -0 "$pid" 2>/dev/null || fail "picserve exited during startup"
    sleep 0.1
done
[[ -n "$addr" ]] || fail "no 'serving on' line within 10s"
base="http://$addr"
echo "   serving at $base"
for _ in $(seq 1 100); do
    curl -fsS -o /dev/null "$base/readyz" 2>/dev/null && break
    sleep 0.1
done

echo "== POST /v1/optimize with the same grid (twice)"
optimize() {
    curl -sS -o "$1" -w '%{http_code}' \
        -X POST "$base/v1/optimize" \
        -H 'Content-Type: application/json' \
        -d "{\"scenario\":\"golden\",\"ranks\":\"$SWEEP_RANKS\",\"mappings\":[\"bin\"],
             \"machines\":[\"quartz\"],\"model_kinds\":[\"synthetic\"],
             \"filter\":$FILTER,\"top\":$TOP,\"model\":{\"fast\":true,\"seed\":1}}"
}
status=$(optimize "$workdir/serve.json")
[[ "$status" == 200 ]] || fail "/v1/optimize returned $status: $(cat "$workdir/serve.json")"
status=$(optimize "$workdir/serve2.json")
[[ "$status" == 200 ]] || fail "second /v1/optimize returned $status: $(cat "$workdir/serve2.json")"
# The sweep object is the response's last field; the second call resolves
# every build from the workload memo and must return it byte for byte.
python3 - "$workdir/serve.json" "$workdir/serve2.json" <<'PY' || fail "repeated /v1/optimize returned a different sweep"
import sys
first, again = (open(p).read() for p in sys.argv[1:3])
cut = lambda raw: raw[raw.index('"sweep":'):]
assert cut(first) == cut(again), "sweep JSON differs between identical optimize calls"
PY

echo "== CLI and service frontiers must agree exactly"
python3 - "$workdir/cli.json" "$workdir/serve.json" <<'PY' || fail "CLI and /v1/optimize disagree"
import json, sys
cli = json.load(open(sys.argv[1]))["sweep"]
srv = json.load(open(sys.argv[2]))["sweep"]
for field in ("configs", "shared_builds", "frontier", "fastest", "knee", "knee_score"):
    if cli[field] != srv[field]:
        sys.exit(f"{field} differs:\n  cli : {cli[field]}\n  serve: {srv[field]}")
front = cli["frontier"]
assert front, "empty frontier"
totals = [p["total_sec"] for p in front]
assert totals == sorted(totals), f"frontier not sorted: {totals}"
assert all(t > 0 for t in totals), totals
print(f"   {cli['configs']} configs, {cli['shared_builds']} shared builds; "
      f"fastest R={cli['fastest']['ranks']} at {cli['fastest']['total_sec']:.3g}s, "
      f"knee R={cli['knee']['ranks']}")
PY

echo "== sweep warmed the point-predict cache"
curl -fsS -o "$workdir/predict.json" -X POST "$base/v1/predict" \
    -d "{\"scenario\":\"golden\",\"ranks\":[8],\"filter\":$FILTER,\"model\":{\"fast\":true,\"seed\":1}}" \
    || fail "post-sweep /v1/predict failed"
python3 - "$workdir/predict.json" <<'PY' || fail "post-sweep predict missed the model cache or the workload memo"
import json, sys
body = json.load(open(sys.argv[1]))
assert body["cache"] == "hit", body
assert body["results"][0]["workload_cache"] == "hit", body
PY

echo "== SIGTERM drains cleanly"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[[ "$rc" == 0 ]] || fail "picserve exited $rc after SIGTERM, want 0"
grep -q "drained cleanly" "$logfile" || fail "no 'drained cleanly' log line"

echo "PASS: sweep smoke"
