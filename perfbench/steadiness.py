#!/usr/bin/env python3
"""Steadiness check of the benchmark: two interleaved sets of runs of one build.

Run from the root of an rtpool checkout:

    python3 perfbench/steadiness.py                        # the gated workloads
    python3 perfbench/steadiness.py admit_cold admit_warm  # the ungated ones

For every workload named (by default those of BENCHMARK.json) it makes ten
runs in set A and ten in set B, alternating A and B, each run with a seed of
its own (1, 2, 3, ...), all with the BENCHMARK.json run length. For every end-to-end
metric it prints each set's median and its spread (the distance between the
first and the third quartile as a share of the median, as
statistics.quantiles(n=4) gives them), how far set B's median lies from set
A's, and the metric's bound. A spread above the bound or a median that moved
by more than the bound, either way, is flagged, as is a failed-op share that
differs between the sets. Exit status 1 when anything is flagged.
"""
import json
import statistics
import subprocess
import sys

RUNS = 10


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"steadiness: {' '.join(cmd)} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    flagged = False
    for workload in workloads:
        sets = {"A": [], "B": []}
        seed = 1
        for _ in range(RUNS):
            for name in ("A", "B"):
                result = run_once(bench["command"], workload, seed,
                                  bench["run_seconds"])
                sets[name].append(result)
                print(f"{workload} set {name} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in result["metrics"].items()), flush=True)
                seed += 1
        print(f"\n{workload}: {RUNS} runs a set")
        print(f"  {'metric':18} {'median A':>12} {'spread A':>9} "
              f"{'median B':>12} {'spread B':>9} {'spread AB':>9} "
              f"{'B vs A':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            moved = (mb - ma) / ma
            sa, sb, sab = spread(a), spread(b), spread(a + b)
            bad = abs(moved) > bound or max(sa, sb) > bound
            flagged |= bad
            print(f"  {metric:18} {ma:12.6g} {sa:9.4f} {mb:12.6g} {sb:9.4f} "
                  f"{sab:9.4f} {moved:+8.4f} {bound:6.3f}"
                  f"{'  <-- over bound' if bad else ''}")
        shares = {name: sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs)
                  for name, runs in sets.items()}
        if shares["A"] != shares["B"]:
            flagged = True
            print(f"  failed-op share differs: {shares}")
        print(f"  failed-op share: {shares['A']}", flush=True)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
