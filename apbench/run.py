#!/usr/bin/env python3
"""Run one apbench workload and print its result as one JSON line.

Usage, from the repository root:

    python3 apbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--json <path>]

The script builds apbench/ (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR/apbench, or .bench_build/apbench when that variable is
unset, then runs apbench for --seconds seconds. With --trace 0 the
result carries every end-to-end metric BENCHMARK.json declares, measured
untraced; with --trace 1 it carries every per-layer metric, from a run
that is half untraced and half traced (trace files land under the build
directory) plus the component calibration microbenches. Every declared
metric must be present with its declared unit. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}; the exit status
is 0 only when every output matched the oracle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Calibration metric <- (microbench, per-item?): per-item benchmarks
# report items/s, the others one operation per iteration.
CALIBRATION = {
    "sim.fiber_switch_ns": ("BM_FiberSwitch", False),
    "sim.event_ns": ("BM_EngineEvent", False),
    "sim.warp_load_ns": ("BM_WarpLoadGlobal", True),
    "util.stat_inc_ns": ("BM_StatInc", False),
    "gpufs.pt_probe_ns": ("BM_PageTableProbe", True),
    "core.aptr_linked_read_ns": ("BM_AptrFaultFreeRead", True),
    "core.aptr_fault_ns": ("BM_AptrFaultPath", True),
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "apbench"


def build(out):
    """Configure once, then build incrementally; logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources next to apbench/ (src/ is missing)")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", "3"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode:
        fail("build failed")


def parse(stdout):
    """apbench's "name value unit" lines plus its check counts."""
    metrics, counts = {}, {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("attempted", "failed"):
            counts[parts[0]] = int(parts[1])
        elif len(parts) == 3:
            try:
                metrics[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return metrics, counts


def calibrate(out, min_time):
    """Host ns per operation of the simulator's building blocks."""
    names = "|".join(bm for bm, _ in CALIBRATION.values())
    cmd = [str(out / "apbench_components"), "--benchmark_format=json",
           f"--benchmark_min_time={min_time}",
           f"--benchmark_filter=^({names})$"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if p.returncode:
        fail("calibration microbenches failed:\n" + p.stderr)
    runs = {b["name"]: b for b in json.loads(p.stdout)["benchmarks"]}
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    metrics = {}
    for metric, (bm, per_item) in CALIBRATION.items():
        b = runs[bm]
        if per_item:
            ns = 1e9 / b["items_per_second"]
        else:
            ns = b["real_time"] * scale[b["time_unit"]]
        metrics[metric] = (ns, "ns")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--json", help="write the ap-bench-result document")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    out = build_dir()
    build(out)

    cmd = [str(out / "apbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        tdir = out / "trace" / args.workload
        tdir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(tdir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.json:
        cmd += ["--json", args.json]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("apbench did not finish in time")
    sys.stdout.write(p.stdout)
    metrics, counts = parse(p.stdout)
    if "attempted" not in counts or "failed" not in counts:
        fail(f"apbench exited {p.returncode} without a result")
    if args.trace:
        metrics.update(calibrate(out, 0.01 if args.smoke else 0.05))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from apbench's output")
        if got[1] != m["unit"]:
            fail(f"metric {m['name']} has unit {got[1]}, "
                 f"BENCHMARK.json declares {m['unit']}")
        result[m["name"]] = {"value": got[0], "unit": m["unit"]}

    correct = p.returncode == 0 and counts["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": result}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
