#!/usr/bin/env bash
# Smoke-test the benchmark trajectory pipeline: regenerate BENCH_decoder.json
# through `make bench-json` on a very short benchtime, then assert every
# expected benchmark family is present so perf history stays machine-readable.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Run against a scratch copy so a smoke run never clobbers the
# full-benchtime trajectory — including an uncommitted ledger refresh
# sitting in the working tree, so save/restore rather than git checkout.
out="$workdir/BENCH_decoder.json"
cp BENCH_decoder.json "$workdir/BENCH_saved.json"
make bench-json BENCHTIME=10x >/dev/null
mv BENCH_decoder.json "$out"
cp "$workdir/BENCH_saved.json" BENCH_decoder.json

python3 - "$out" <<'EOF'
import json
import sys

report = json.load(open(sys.argv[1]))
names = [b["name"] for b in report["benchmarks"]]
expected = [
    "BenchmarkSurfNetDecoder/",
    "BenchmarkUnionFindDecoder/",
    "BenchmarkMWPMDecoder/",
    "BenchmarkMWPMDecode/d=5/dense",
    "BenchmarkMWPMDecode/d=5/scratch",
    "BenchmarkDecodeFrameAllocs/",
    "BenchmarkRunOverhead/",
    "BenchmarkDecodeWallLatency/",
    "BenchmarkBatchSample/",
    "BenchmarkBatchDecode/fig8/d=9/packed",
    "BenchmarkBatchDecode/fig8/d=9/scalar",
    "BenchmarkBatchDecode/erasure/d=9/packed",
    "BenchmarkBatchDecode/erasure/d=9/scalar",
    "BenchmarkScheduleLP",
    "BenchmarkPlannerEpochs",
    "BenchmarkPlannerK1",
]
missing = [e for e in expected if not any(n.startswith(e) for n in names)]
if missing:
    sys.exit(f"BENCH_decoder.json is missing benchmark families: {missing}\npresent: {names}")
for b in report["benchmarks"]:
    if b["ns_per_op"] <= 0:
        sys.exit(f"suspicious ns_per_op in {b['name']}: {b['ns_per_op']}")
    # The wall-latency family must carry its percentile extras so tail
    # regressions stay visible in the trajectory.
    if b["name"].startswith("BenchmarkDecodeWallLatency/"):
        extra = b.get("extra", {})
        for unit in ("p50-ns/op", "p99-ns/op", "p999-ns/op"):
            if extra.get(unit, 0) <= 0:
                sys.exit(f"{b['name']} missing percentile metric {unit}: {extra}")
    # The packed-vs-scalar families report ns/trial so the 64-lane ops stay
    # directly comparable with the scalar rows.
    if b["name"].startswith(("BenchmarkBatchSample/", "BenchmarkBatchDecode/")):
        if b.get("extra", {}).get("ns/trial", 0) <= 0:
            sys.exit(f"{b['name']} missing ns/trial metric: {b.get('extra')}")
print(f"bench smoke OK: {len(names)} benchmarks, all expected families present")
EOF
