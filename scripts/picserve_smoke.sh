#!/usr/bin/env bash
# picserve end-to-end smoke: build the service, serve the committed golden
# trace, hit /readyz and /v1/predict, assert well-formed 200 responses,
# then SIGTERM it and require a clean drain (exit 0) with the -metrics
# manifest written. CI runs this; it is also a convenient local check:
#
#   ./scripts/picserve_smoke.sh
#
# Needs: go, curl, python3 (JSON validation). No fixed port — the service
# binds :0 and the script scrapes the bound address from its log line.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
logfile="$workdir/picserve.log"
manifest="$workdir/manifest.json"
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

echo "== build"
go build -o "$workdir/picserve" ./cmd/picserve

echo "== start on the golden fixture"
"$workdir/picserve" \
    -listen 127.0.0.1:0 \
    -trace golden=testdata/golden/trace.bin \
    -metrics "$manifest" \
    >"$logfile" 2>&1 &
pid=$!

# Scrape the bound address from the startup log line.
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

echo "== readiness"
ready=""
for _ in $(seq 1 100); do
    if curl -fsS -o "$workdir/readyz.json" "$base/readyz" 2>/dev/null; then
        ready=yes
        break
    fi
    sleep 0.1
done
[[ -n "$ready" ]] || fail "/readyz never returned 200"
python3 -m json.tool "$workdir/readyz.json" >/dev/null || fail "/readyz body is not JSON"

echo "== predict (trains a fast model on first use)"
status=$(curl -sS -o "$workdir/predict.json" -w '%{http_code}' \
    -X POST "$base/v1/predict" \
    -H 'Content-Type: application/json' \
    -d '{"scenario":"golden","ranks":[8,16],"mapping":"bin","model":{"fast":true,"seed":1}}')
[[ "$status" == 200 ]] || fail "/v1/predict returned $status: $(cat "$workdir/predict.json")"
python3 - "$workdir/predict.json" <<'PY' || fail "/v1/predict body malformed"
import json, sys
with open(sys.argv[1]) as f:
    body = json.load(f)
results = body["results"]
assert [r["ranks"] for r in results] == [8, 16], results
assert all(r["total_sec"] > 0 for r in results), results
assert body["cache"] == "miss", body
print("   predicted:", ", ".join("R=%d %.3gs" % (r["ranks"], r["total_sec"]) for r in results))
PY

echo "== identical predict is answered from the workload memo"
curl -fsS -o "$workdir/predict_again.json" -X POST "$base/v1/predict" \
    -d '{"scenario":"golden","ranks":[8,16],"mapping":"bin","model":{"fast":true,"seed":1}}' \
    || fail "repeated /v1/predict failed"
python3 - "$workdir/predict.json" "$workdir/predict_again.json" <<'PY' || fail "repeated predict differs or missed the workload memo"
import json, sys
first, again = (json.load(open(p)) for p in sys.argv[1:3])
assert [r["total_sec"] for r in again["results"]] == [r["total_sec"] for r in first["results"]], (first, again)
assert [r["workload_cache"] for r in first["results"]] == ["miss", "miss"], first
assert [r["workload_cache"] for r in again["results"]] == ["hit", "hit"], again
PY

echo "== second request hits the model cache"
curl -fsS -o "$workdir/predict2.json" -X POST "$base/v1/predict" \
    -d '{"scenario":"golden","ranks":[8],"model":{"fast":true,"seed":1}}' \
    || fail "warm /v1/predict failed"
python3 -c 'import json,sys; assert json.load(open(sys.argv[1]))["cache"]=="hit"' \
    "$workdir/predict2.json" || fail "second request did not hit the cache"

echo "== registry view"
curl -fsS "$base/v1/models" | python3 -m json.tool >/dev/null || fail "/v1/models malformed"

echo "== SIGTERM drains cleanly"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[[ "$rc" == 0 ]] || fail "picserve exited $rc after SIGTERM, want 0"
grep -q "drained cleanly" "$logfile" || fail "no 'drained cleanly' log line"
[[ -s "$manifest" ]] || fail "-metrics manifest missing after drain"
python3 - "$manifest" <<'PY' || fail "manifest malformed"
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
assert m["tool"] == "picserve", m.get("tool")
counters = m.get("counters", {})
assert counters.get("serve.requests", 0) >= 3, counters
assert counters.get("serve.model_cache.misses", 0) == 1, counters
assert counters.get("serve.model_cache.hits", 0) >= 1, counters
assert counters.get("serve.workload_cache.hits", 0) >= 1, counters
PY

echo "PASS: picserve smoke"
