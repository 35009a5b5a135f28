#!/usr/bin/env python3
"""End-to-end benchmark of rtpool's user paths (see perfbench/README.md).

Run from the root of an rtpool checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Builds rtpool and the `rtbench` program in Release (perfbench/CMakeLists.txt)
under $CARGO_TARGET_DIR (default .bench_build), prints the run record, then
runs the workload in a process of its own. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 it runs the traced replay of every workload (one process each) and
reports the per-layer metrics plus the tracing overhead; the spans are
written to <build dir>/traces/.

Exit status 0 when every check passed; 1 on a failed check or a crashed
run; 2 when the sources are missing or the build fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["corpus", "admit_cold", "admit_warm", "sweep"]
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", flush=True)


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def build(root):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(max(1, min(4, os.cpu_count() or 1)))])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                out.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed ({' '.join(cmd)}); log in {log_path}", 2)
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        cache = f.read()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail(f"{build_dir} is not a Release build; remove it and rerun", 2)
    return build_dir


def source_digest(root):
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(cmd, root):
    """Run one rtbench process; echo its log and return its result object."""
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}", 1)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd[1:])} exited with {proc.returncode}", 1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", type=int, choices=[0, 1], default=0,
                        help="self-test: corrupt one checked output")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of an rtpool "
                 "checkout", 2)
    build_dir = build(root)
    binary = os.path.join(build_dir, "rtbench")

    log(f"cpu={cpu_model()!r} nproc={os.cpu_count()} commit={commit(root)} "
        f"source_sha256={source_digest(root)}")
    log(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--corrupt", str(args.corrupt),
              "--data-dir", os.path.join(root, "perfbench")]
    if args.trace == 0:
        out = run_child([binary, "--workload", args.workload] + common,
                        root)
    else:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        layers, totals = {}, {"untraced_s": 0.0, "traced_s": 0.0,
                              "layer_span_s": 0.0}
        attempted = failed = 0
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        for workload in order:
            trace_out = os.path.join(
                trace_dir, f"{workload}-seed{args.seed}.json")
            result = run_child([binary, "--workload", workload, "--trace",
                                "1", "--trace-out", trace_out] + common, root)
            layers.update(result["layers"])
            for key in totals:
                totals[key] += result["trace"][key]
            attempted += result["attempted"]
            failed += result["failed"]
            log(f"traced {workload}: spans in {trace_out}")
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (totals["traced_s"] / totals["untraced_s"] - 1.0),
            "unit": "%"}
        layers["trace.coverage_pct"] = {
            "value": 100.0 * (totals["layer_span_s"] / totals["traced_s"]),
            "unit": "%"}
        out = {"correct": True, "attempted": attempted, "failed": failed,
               "metrics": dict(sorted(layers.items()))}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
