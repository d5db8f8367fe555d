#!/usr/bin/env python3
"""Self-check of the benchmark at --smoke size.

Usage, from the repository root:

    python3 apbench/smoke.py

For every workload, one untraced and one traced --smoke run must exit 0
and carry every metric BENCHMARK.json declares, with its unit; every
simulated metric must read the same in both runs; the --json document
must carry each end-to-end bound as its tolerance; and a --corrupt run,
whose oracle expects perturbed values, must exit nonzero.
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  apbench/run.py: build directory, build, parser

# Host-clock metrics; every other metric is simulated, hence fixed by
# the seed.
HOST_CLOCK = {"setup_s", "wall_ref", "peak_rss_mb",
              "sim.kinstr_per_host_s", "trace.overhead_frac"}


def host_clock(name):
    return (name in HOST_CLOCK or name.startswith("host.")
            or name.endswith("_ns"))


def check(workload, out, bounds):
    """Every failed check of one workload, as messages."""
    errors, seen = [], []
    for trace in (0, 1):
        doc = out / f"smoke-{workload}.json"
        cmd = [sys.executable, str(run.HERE / "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "0",
               "--trace", str(trace), "--smoke", "--json", str(doc)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode:
            errors.append(f"trace {trace} exited {p.returncode}: "
                          + p.stderr.strip()[-500:])
            continue
        seen.append(run.parse(p.stdout)[0])
        tols = {k: m["tol"]
                for k, m in json.loads(doc.read_text())["metrics"].items()}
        for name, bound in bounds.items():
            if tols.get(name) != bound:
                errors.append(f"{name}: tolerance {tols.get(name)} in the "
                              f"--json document, bound {bound} declared")
    if len(seen) == 2:
        for name, value in seen[0].items():
            if not host_clock(name) and seen[1].get(name) != value:
                errors.append(f"{name} reads {value} untraced and "
                              f"{seen[1].get(name)} traced")
    cmd = [str(out / "apbench"), "--workload", workload, "--seed", "1",
           "--smoke", "--corrupt"]
    if subprocess.run(cmd, capture_output=True).returncode == 0:
        errors.append("a --corrupt run exited 0")
    return errors


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = run.build_dir()
    run.build(out)
    failed = False
    for w in (x["name"] for x in spec["workloads"]):
        errors = check(w, out, bounds)
        for e in errors:
            print(f"FAIL {w}: {e}")
        print(f"{w}: {'FAILED' if errors else 'ok'}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
