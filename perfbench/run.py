#!/usr/bin/env python3
"""The CSC benchmark: builds csc_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary and the library it links are
compiled from this checkout's sources into .bench_build/ (or
$CARGO_TARGET_DIR when set); the first run in a checkout pays the build.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With --trace 1 the workload runs twice with the
same seed, untraced and then traced; the result carries the per-layer
metrics of the traced run, including trace.overhead.<metric>: the traced
minus the untraced value of every end-to-end metric.

Human-readable lines (the stamp, every metric with its unit and the output
check's failed fraction) go first; the last stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must finish within this many seconds, traced pair included.
RUN_BUDGET_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target)


def build(build_dir):
    """Configures and builds csc_perfbench; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "csc_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "csc_perfbench")


def source_commit():
    """The checkout's git commit when it is a repository, else a digest of
    the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=10)
            if proc.returncode == 0 and proc.stdout.strip():
                return proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_times():
    """The aggregate jiffies of /proc/stat's cpu line, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return [int(x) for x in fields[1:9]] if fields[0] == "cpu" else None
    except (OSError, ValueError, IndexError):
        return None


def steal_fraction(before, after):
    """Share of CPU time the hypervisor stole between two cpu_times()."""
    if before is None or after is None:
        return -1.0
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def run_binary(binary, args, trace, work_dir, deadline):
    """Runs one workload pass and returns its parsed RESULT object."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the %s pass"
                           % ("traced" if trace else "untraced"))
    before = cpu_times()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    steal = steal_fraction(before, cpu_times())
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError("csc_perfbench exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("csc_perfbench printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["stamp"]["cpu_steal_fraction"] = steal
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error("unknown workload %r (have %s)" % (args.workload, workloads))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    work_dir = os.path.join(root, "perfbench-runs",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        untraced = run_binary(binary, args, False, work_dir, deadline)
        passes = [untraced]
        if args.trace:
            traced = run_binary(binary, args, True, work_dir, deadline)
            passes.append(traced)
            metrics = dict(traced["metrics"])
            for name, unit in end_to_end.items():
                metrics["trace.overhead." + name] = {
                    "value": traced["metrics"][name]["value"]
                             - untraced["metrics"][name]["value"],
                    "unit": unit}
            wanted = per_layer
        else:
            metrics = untraced["metrics"]
            wanted = end_to_end
    finally:
        # Keep the span logs; drop the WAL and index files.
        for name in os.listdir(work_dir):
            if name.startswith("trace-"):
                os.makedirs(os.path.join(root, "perfbench-traces"), exist_ok=True)
                shutil.move(os.path.join(work_dir, name),
                            os.path.join(root, "perfbench-traces", name))
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise RuntimeError("metrics missing from the run: %s" % missing)
    result_metrics = {}
    for name, unit in wanted.items():
        value = metrics[name]["value"]
        if value is None:
            raise RuntimeError("metric %s was not measured" % name)
        result_metrics[name] = {"value": value, "unit": unit}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    stamp = dict(untraced["stamp"])
    stamp["commit"] = source_commit()
    if args.trace:
        stamp["traced_spin_speedup"] = traced["stamp"]["spin_speedup"]
        stamp["traced_cpu_steal_fraction"] = traced["stamp"]["cpu_steal_fraction"]
        stamp["traced_spans_dropped"] = traced["stamp"]["spans_dropped"]
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for name, m in result_metrics.items():
        print("%-40s %18.6f %s" % (name, m["value"], m["unit"]))
    print("%-40s %18.6f (%d of %d)" % ("failed_frac", failed / max(1, attempted),
                                       failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
