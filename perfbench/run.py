#!/usr/bin/env python3
"""End-to-end benchmark of the M2Paxos reproduction: one command per run.

    python3 perfbench/run.py --workload owned --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/ (the library from src/
plus the driver in perfbench/src) into $CARGO_TARGET_DIR or .bench_build,
runs the chosen workload, passes the driver's report through, and prints
as its last line one JSON object with the keys correct, attempted, failed
and metrics: every end_to_end metric of BENCHMARK.json with --trace 0, every
per_layer metric with --trace 1. A traced run measures the workload twice,
untraced then traced; its overhead.* metrics are traced minus untraced.
Exits nonzero when the build or a correctness check fails.

Extra flags reproduce the known defects in perfbench/README.md:
--rate CMDS_PER_S (owned, tpcc) and --window-ms MS (sim_tpcc).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LIMIT_S = 170  # every run after the build ends within 180 s

# Per-layer metrics of the layers a backend does not run (README.md); they
# read 0 there. Any other per_layer metric the driver leaves out is an error.
NOT_RUN = {
    "runtime": ("sim.", "harness.", "self.harness_wall_us_per_cmd"),
    "sim": ("driver.", "runtime.", "net.send_ns_p50", "net.broadcast_ns_p50",
            "net.wire_cpu_share", "self.driver_us_per_cmd",
            "self.runtime_us_per_cmd", "self.net_us_per_cmd"),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds perfbench; build output goes to stderr."""
    src = os.path.join(ROOT, "perfbench")
    cfg = ["cmake", "-S", src, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        cfg += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 2)
    for cmd in (cfg, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_driver(binary, args, trace, deadline):
    """Runs the driver once; echoes its report, returns its result JSON."""
    cmd = [binary] + args + ["--trace", str(trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("driver exceeded the time limit: " + " ".join(cmd))
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result (exit %d)" % proc.returncode)
    print(lines[-1])
    if proc.returncode not in (0, 1):
        fail("driver exited with %d" % proc.returncode)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rate", type=float)
    p.add_argument("--window-ms", type=float)
    a = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace-dir", trace_dir]
    if a.rate is not None:
        args += ["--rate", str(a.rate)]
    if a.window_ms is not None:
        args += ["--window-ms", str(a.window_ms)]

    deadline = time.time() + RUN_LIMIT_S
    runs = [run_driver(binary, args, 0, deadline)]
    if a.trace:
        runs.append(run_driver(binary, args, 1, deadline))
    last = runs[-1]

    metrics = {}
    if not a.trace:
        for m in spec["end_to_end"]:
            v = last["e2e"].get(m["name"])
            if v is None:
                fail("workload did not report " + m["name"])
            metrics[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    else:
        not_run = NOT_RUN["sim" if a.workload.startswith("sim_") else "runtime"]
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith("overhead."):
                base = name[len("overhead."):]
                value = last["e2e"][base]["value"] - runs[0]["e2e"][base]["value"]
            elif name in last["layer"]:
                value = last["layer"][name]["value"]
            elif name.startswith(not_run):
                value = 0
            else:
                fail("workload did not report " + name)
            metrics[name] = {"value": value, "unit": m["unit"]}

    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": last["attempted"],
                      "failed": last["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
