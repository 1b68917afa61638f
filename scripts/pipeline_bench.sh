#!/usr/bin/env bash
# pipeline bench harness: measures the batch pipeline's hot layers and
# writes them, with the commit, Go version, GOMAXPROCS and host cores they
# ran on, to BENCH_pipeline.json —
#
#   fill    : paper-scale matrix fill (N_p = 599,257 on R = 8352 ranks),
#             the flat per-particle oracle fill ("scalar") vs the
#             generator's tiled ghost fill, for both bin and element mapping;
#   stream  : frames/sec through StreamConcurrent with the generator as the
#             sink;
#   fused   : wall time of one fused simulate→build→predict run;
#   simulate: one BSP replay (SimulateBSP) of a paper-scale workload
#             (N_p = 599,257 on R = 8352, bin and element mapping, each
#             also through the pre-memo oracle loop) and of the small
#             R = 256 cluster fixture — ms, bytes and allocations per
#             replay, plus the share of rank-intervals the per-replay
#             IterTime memo reuses;
#   sweep   : a paper-scale capacity-planning sweep (24 configurations over
#             ranks 1044–8352), shared-build engine vs the naive
#             one-pipeline-per-configuration loop;
#   rebalance: static bisection vs each dynamic load-balancing policy on a
#             clustered element-mapped trace — predicted wall time, priced
#             migration seconds, and rebalance epochs per policy;
#   train   : one Model Generator run (TrainModels at seed 1, fast and full
#             symbolic search, kernels and restarts fitted concurrently),
#             and the scoring of one 200-individual GP population over the
#             projection kernel's 1,000 training samples as compiled column
#             programs vs the tree-walking oracle;
#   pic     : one serial PIC solver step of the experiment-scale Hele-Shaw
#             scenario (20,000 particles, 128x128x1 elements) and its
#             projection phase alone;
#   build   : the mapping algorithms a workload build reruns per frame or
#             rebalance epoch — one recursive coordinate bisection of the
#             128x128 and 465x465 meshes onto R = 8352 ranks, static and
#             weighted, and one median-cut bin assignment of a
#             50,000-particle frame onto 1024 ranks and of the
#             599,257-particle paper-scale disc onto 8352 ranks.
#
# The headline ratios are speedup.fill_bin / speedup.fill_element (tiled
# fill over the flat oracle fill at paper scale),
# speedup.simulate_bin / speedup.simulate_element (memoized replay over
# the oracle replay at paper scale),
# speedup.sweep_shared_build (the sweep engine must clear 5× over naive
# per-configuration evaluation) and speedup.calibrate (compiled population
# scoring over the tree walk, both serial). BENCHTIME=1x gives a CI smoke
# run; the committed JSON uses the default 3x (sweep runs at 1x regardless —
# one naive iteration is ~50 s of pure rebuild work — and the calibrate
# pair and the pic pair at 1s, since one iteration takes milliseconds).
#
#   BENCHTIME=3x ./scripts/pipeline_bench.sh
#
# Needs: go, python3.
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME=${BENCHTIME:-3x}
OUT=${OUT:-BENCH_pipeline.json}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

echo "== fill (paper scale, scalar vs tiled; benchtime $BENCHTIME)"
go test -run '^$' -bench 'PaperFill' -benchtime "$BENCHTIME" ./internal/core/ \
    | tee "$workdir/fill.txt" || fail "fill benchmarks failed"

echo "== stream (StreamConcurrent frames/sec)"
go test -run '^$' -bench 'StreamConcurrent' -benchtime "$BENCHTIME" ./internal/pipeline/ \
    | tee "$workdir/stream.txt" || fail "stream benchmarks failed"

echo "== fused (single-process simulate→build→predict wall time)"
go test -run '^$' -bench 'FusedPipeline$' -benchtime "$BENCHTIME" . \
    | tee "$workdir/fused.txt" || fail "fused benchmark failed"

echo "== simulate (BSP replay per prediction)"
go test -run '^$' -bench 'SimulateBSP' -benchmem -benchtime "$BENCHTIME" ./internal/bsst/ \
    | tee "$workdir/simulate.txt" || fail "simulate benchmarks failed"

echo "== rebalance (static vs dynamic policies, predicted + migration cost)"
go test -run '^$' -bench 'Rebalance' -benchtime "$BENCHTIME" . \
    | tee "$workdir/rebalance.txt" || fail "rebalance benchmarks failed"

echo "== sweep (paper-scale capacity planning, shared builds vs naive)"
go test -run '^$' -bench 'SweepPaper' -benchtime 1x -timeout 30m ./internal/sweep/ \
    | tee "$workdir/sweep.txt" || fail "sweep benchmarks failed"

echo "== train (TrainModels fast/full; population scoring compiled vs tree)"
go test -run '^$' -bench 'TrainModels' -benchtime "$BENCHTIME" . \
    | tee "$workdir/train.txt" || fail "train benchmarks failed"
go test -run '^$' -bench 'Calibrate' -benchtime 1s ./internal/perfmodel/ \
    | tee -a "$workdir/train.txt" || fail "calibrate benchmarks failed"

echo "== pic (Hele-Shaw solver step and projection alone, serial)"
go test -run '^$' -bench 'SolverStepHeleShaw$|Project$' -benchtime 1s ./internal/pic/ \
    | tee "$workdir/pic.txt" || fail "pic benchmarks failed"

echo "== build (mesh bisection and bin assignment per build)"
go test -run '^$' -bench 'Decompose' -benchmem -benchtime "$BENCHTIME" ./internal/mesh/ \
    | tee "$workdir/build.txt" || fail "decompose benchmarks failed"
go test -run '^$' -bench 'BinAssignMedian|BinAssignPaper' -benchtime "$BENCHTIME" ./internal/mapping/ \
    | tee -a "$workdir/build.txt" || fail "bin assignment benchmarks failed"

echo "== write $OUT"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
    commit="$commit-dirty"
fi
python3 - "$workdir" "$OUT" "$BENCHTIME" "$commit" "$(go env GOVERSION)" <<'PY' || fail "assembling stats failed"
import json, os, re, sys

workdir, out, benchtime, commit, goversion = sys.argv[1:6]
# GOMAXPROCS of the benchmark runs, read from the "-N" suffix go test
# appends to every benchmark name (no suffix means 1).
gomaxprocs = set()

def parse(path):
    """Benchmark name -> {"ms": ns/op in ms, "<unit>": extra metrics}."""
    runs = {}
    pat = re.compile(r"^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+(.*)$")
    for line in open(os.path.join(workdir, path)):
        m = pat.match(line)
        if not m:
            continue
        name, rest = m.group(1), m.group(3)
        gomaxprocs.add(int(m.group(2) or 1))
        r = runs.setdefault(name, {})
        for val, unit in re.findall(r"([\d.e+]+)\s+(\S+)", rest):
            key = "ms" if unit == "ns/op" else unit.replace("/", "_per_")
            v = float(val) / 1e6 if unit == "ns/op" else float(val)
            # -count>1 repeats a benchmark; keep the fastest (least noisy) run.
            if key not in r or (key == "ms" and v < r[key]):
                r[key] = v
    return runs

fill = parse("fill.txt")
stream = parse("stream.txt")
fused = parse("fused.txt")
sweep = parse("sweep.txt")
rebal = parse("rebalance.txt")
simulate = parse("simulate.txt")
train = parse("train.txt")
pic = parse("pic.txt")
build = parse("build.txt")

def ms(runs, name, digits=1):
    try:
        return round(runs["Benchmark" + name]["ms"], digits)
    except KeyError:
        sys.exit(f"benchmark {name} missing from output")

doc = {
    "bench": "pipeline hot paths: fill / stream / fused / simulate / sweep / rebalance / train / pic / build",
    "config": {
        "np": 599257,
        "ranks": 8352,
        "filter_radius": 0.004,
        "benchtime": benchtime,
        # Speedups here come from the layout (batched ghost queries, hoisted
        # per-tile windows), not parallelism — both variants run serially, so
        # the ratios hold on a 1-core host.
        "host_cores": os.cpu_count(),
        "gomaxprocs": sorted(gomaxprocs)[0] if len(gomaxprocs) == 1 else sorted(gomaxprocs),
        "go_version": goversion,
        "commit": commit,
    },
    "fill_ms_per_frame": {
        "bin_scalar": ms(fill, "PaperFillBinScalar"),
        "bin_tiled": ms(fill, "PaperFillBinTiled"),
        "element_scalar": ms(fill, "PaperFillElementScalar"),
        "element_tiled": ms(fill, "PaperFillElementTiled"),
    },
    "stream_frames_per_s": round(stream["BenchmarkStreamConcurrent"]["frames_per_s"], 2),
    "fused_run_ms": ms(fused, "FusedPipeline"),
    # One serial Hele-Shaw solver step (20,000 particles) and its
    # projection phase alone, the fused run's critical path.
    "pic_step_ms": ms(pic, "SolverStepHeleShaw", 3),
    "project_ms": ms(pic, "Project", 3),
    # 24 configurations (4 rank counts x bin x 3 machines x 2 model kinds)
    # over the paper-scale trace: the shared-build engine does 4 workload
    # builds where the naive loop does 24.
    "sweep_configs_per_s": {
        "shared_build": round(sweep["BenchmarkSweepPaperShared"]["configs_per_s"], 4),
        "naive": round(sweep["BenchmarkSweepPaperNaive"]["configs_per_s"], 4),
    },
}

# Dynamic load balancing: predicted application time per policy (the model
# output) plus the pipeline's own query wall time. migration_s is the
# *marginal* barrier extension the priced transfers cause — 0 means the
# epoch's messages hid entirely under the slowest rank's compute.
static_pred = None
rebal_doc = {}
for policy in ("Static", "Periodic", "Threshold", "Diffusion"):
    r = rebal.get("BenchmarkRebalance" + policy)
    if r is None:
        sys.exit(f"benchmark Rebalance{policy} missing from output")
    entry = {
        "run_ms": round(r["ms"], 1),
        "predicted_s": round(r["predicted_s"], 6),
        "migration_s": round(r["migration_s"], 6),
        "epochs": int(r["epochs"]),
        "migrated_elements": int(r["mig_elems"]),
        "migrated_particles": int(r["mig_parts"]),
    }
    if policy == "Static":
        static_pred = entry["predicted_s"]
    else:
        entry["predicted_speedup_vs_static"] = round(static_pred / entry["predicted_s"], 2)
    rebal_doc[policy.lower()] = entry
doc["rebalance"] = rebal_doc

# One BSP replay per prediction. reuse_share is the fraction of
# rank-intervals whose IterTime the per-replay memo answered without
# evaluating the kernel models; the *_oracle cases replay the same
# workloads through the loop without the memo and with sorted comm folds.
sim_doc = {}
for case in ("paper_bin", "paper_bin_oracle", "paper_element", "paper_element_oracle", "cluster256"):
    r = simulate.get("BenchmarkSimulateBSP/" + case)
    if r is None:
        sys.exit(f"benchmark SimulateBSP/{case} missing from output")
    sim_doc[case] = {
        "ms": round(r["ms"], 3),
        "bytes_per_op": int(r["B_per_op"]),
        "allocs_per_op": int(r["allocs_per_op"]),
        "rank_intervals": int(r["rank_intervals"]),
        "iter_evals": int(r["iter_evals"]),
        "reuse_share": round(1 - r["iter_evals"] / r["rank_intervals"], 4),
    }
doc["simulate_per_prediction"] = sim_doc

# Model training: wall time of one TrainModels call (its fits run
# concurrently, so this one depends on host_cores) and the serial scoring
# of one GP population, compiled vs tree walk.
calib = {}
for case in ("compiled", "tree"):
    r = train.get("BenchmarkCalibrate/" + case)
    if r is None:
        sys.exit(f"benchmark Calibrate/{case} missing from output")
    calib[case] = round(r["ms"], 3)
doc["train"] = {
    "fast_ms": ms(train, "TrainModels/fast"),
    "full_ms": ms(train, "TrainModels/full"),
    "calibrate_ms": calib,
}
# Per-build mapping work: one bisection per element decomposition (static
# builds and every rebalance epoch) and one bin assignment per frame.
decomp = {}
for mesh_side in ("128x128", "465x465"):
    for mode in ("static", "weighted"):
        decomp[f"{mesh_side}_{mode}"] = ms(build, f"Decompose/{mesh_side}/R=8352/{mode}", 2)
doc["build"] = {
    "decompose_ms": decomp,
    "bin_assign_ms": ms(build, "BinAssignMedian", 2),
    "bin_assign_paper_ms": ms(build, "BinAssignPaper", 2),
}
f = doc["fill_ms_per_frame"]
sw = doc["sweep_configs_per_s"]
doc["speedup"] = {
    "fill_bin": round(f["bin_scalar"] / f["bin_tiled"], 2),
    "fill_element": round(f["element_scalar"] / f["element_tiled"], 2),
    "simulate_bin": round(sim_doc["paper_bin_oracle"]["ms"] / sim_doc["paper_bin"]["ms"], 2),
    "simulate_element": round(sim_doc["paper_element_oracle"]["ms"] / sim_doc["paper_element"]["ms"], 2),
    "sweep_shared_build": round(sw["shared_build"] / sw["naive"], 2),
    "calibrate": round(calib["tree"] / calib["compiled"], 2),
}
with open(out, "w") as fh:
    json.dump(doc, fh, indent=2)
    fh.write("\n")
print(f"   fill bin    : {f['bin_scalar']:.0f} -> {f['bin_tiled']:.0f} ms "
      f"({doc['speedup']['fill_bin']}x)")
print(f"   fill element: {f['element_scalar']:.0f} -> {f['element_tiled']:.0f} ms "
      f"({doc['speedup']['fill_element']}x)")
print(f"   stream      : {doc['stream_frames_per_s']:.2f} frames/s")
print(f"   fused run   : {doc['fused_run_ms']:.0f} ms")
print(f"   pic step    : {doc['pic_step_ms']:.3f} ms, projection {doc['project_ms']:.3f} ms")
for case, entry in sim_doc.items():
    print(f"   simulate {case:<20}: {entry['ms']:.3f} ms/replay, "
          f"{entry['allocs_per_op']} allocs, reuse {entry['reuse_share']:.1%}")
print(f"   sweep       : {sw['naive']:.3f} -> {sw['shared_build']:.3f} configs/s "
      f"({doc['speedup']['sweep_shared_build']}x)")
for case, v in decomp.items():
    print(f"   decompose {case:<17}: {v:.2f} ms")
print(f"   bin assign  : {doc['build']['bin_assign_ms']:.2f} ms/frame, "
      f"paper scale {doc['build']['bin_assign_paper_ms']:.2f} ms/frame")
print(f"   train       : fast {doc['train']['fast_ms']:.0f} ms, full {doc['train']['full_ms']:.0f} ms")
print(f"   calibrate   : {calib['tree']:.2f} -> {calib['compiled']:.2f} ms/population "
      f"({doc['speedup']['calibrate']}x)")
for policy, entry in rebal_doc.items():
    sp = entry.get("predicted_speedup_vs_static")
    tail = f" ({sp}x vs static)" if sp else ""
    print(f"   rebalance {policy:<9}: predicted {entry['predicted_s']:.4f} s, "
          f"migration {entry['migration_s']:.6f} s, {entry['epochs']} epochs{tail}")
PY

echo "PASS: wrote $OUT"
