#!/usr/bin/env python3
"""Merge perf results into one BENCH_analysis.json report.

Inputs (all optional, at least one required):
  --sweep    JSON written by `bench/perf_sweep` (experiment-engine wall
             times, trials/sec, cross-thread determinism verdicts).
  --kernels  JSON written by `bench/perf_analysis
             --benchmark_format=json` (google-benchmark per-kernel timings).
  --serve    JSON written by `bench/perf_serve` (admission-service load
             bench: requests/s, p50/p99, path counters). Folded into the
             report as the `serve` section. ALWAYS gated on correctness:
             any dropped request, error response, verdict mismatch against
             the rtpool_cli-identical reference, or failed mid-run hot
             reload exits 1. The batched+sharded-vs-naive speedup is
             report-only unless --enforce-serve-speedup is set (wall-clock
             ratios are meaningless on shared CI boxes).
  --corpus   Summary JSON written by `rtpool_corpus --summary` (schema
             rtpool-corpus-summary-v1). Folded into the report as the
             `corpus` section. HARD GATE: any safety violation (a sound
             analyzer accepting a set the simulator drives into a miss or
             deadlock) or an incomplete range exits 1 — unlike wall-clock
             numbers, the safety direction is load-independent and must
             hold on any machine.
  --baseline Committed BENCH_analysis.json to diff against. REPORT-ONLY:
             per-point trials/s and per-kernel timing deltas are printed
             and recorded under `baseline_diff`, but never affect the exit
             status (wall-time asserts are meaningless on shared CI boxes).

Thread-scaling gate: every sweep point is checked for multi-thread runs
slower than the same point's threads=1 run; regressions are printed as
warnings and recorded under `thread_scaling_regressions`. Report-only by
default — pass --enforce-thread-scaling to turn regressions into exit 1
(meant for dedicated perf boxes, not shared CI runners).

Output (--out, default BENCH_analysis.json): the sweep report with a
`kernels` section appended:

  "kernels": [{"name": "BM_Algorithm1/8", "time_ns": ..., "cpu_ns": ...,
               "iterations": ...}, ...]

Standard library only; no third-party dependencies.
"""

import argparse
import json
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def extract_kernels(gbench):
    """Per-kernel rows from a google-benchmark JSON document."""
    kernels = []
    for row in gbench.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue  # keep raw iterations; aggregates repeat them
        unit = row.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            print(f"bench_report: unknown time unit '{unit}' for "
                  f"{row.get('name')}, skipping", file=sys.stderr)
            continue
        kernels.append({
            "name": row.get("name", "?"),
            "time_ns": row.get("real_time", 0.0) * scale,
            "cpu_ns": row.get("cpu_time", 0.0) * scale,
            "iterations": row.get("iterations", 0),
        })
    return kernels


def point_rates(report):
    """{point name: best trials/s across thread counts} from a report."""
    rates = {}
    for point in report.get("points", []):
        best = 0.0
        for run in point.get("runs", []):
            best = max(best, run.get("trials_per_s", 0.0))
        rates[point.get("name", "?")] = best
    return rates


def kernel_times(report):
    """{kernel name: time_ns} from a report."""
    return {k.get("name", "?"): k.get("time_ns", 0.0)
            for k in report.get("kernels", [])}


def diff_against_baseline(report, baseline):
    """Report-only comparison of the new report against a committed one."""
    diff = {"points": [], "kernels": []}
    old_adm = baseline.get("admission")
    new_adm = report.get("admission")
    if old_adm and new_adm:
        row = {}
        for key in ("decision_wall_s", "cold_wall_s"):
            if key not in old_adm or key not in new_adm:
                continue
            old = old_adm[key]
            new = new_adm[key]
            row[key] = new
            row["baseline_" + key] = old
            if old > 0.0 and new > 0.0:
                print(f"bench_report: admission {key}: {new:.4f} "
                      f"vs baseline {old:.4f} ({old / new:.2f}x)")
        diff["admission"] = row
    old_rates = point_rates(baseline)
    for name, rate in sorted(point_rates(report).items()):
        old = old_rates.get(name)
        if old is None or old <= 0.0 or rate <= 0.0:
            continue
        row = {"name": name, "trials_per_s": rate, "baseline_trials_per_s": old,
               "speedup": rate / old}
        diff["points"].append(row)
        print(f"bench_report: point {name}: {rate:.1f} trials/s "
              f"vs baseline {old:.1f} ({rate / old:.2f}x)")
    old_kernels = kernel_times(baseline)
    for name, t in sorted(kernel_times(report).items()):
        old = old_kernels.get(name)
        if old is None or old <= 0.0 or t <= 0.0:
            continue
        row = {"name": name, "time_ns": t, "baseline_time_ns": old,
               "speedup": old / t}
        diff["kernels"].append(row)
        print(f"bench_report: kernel {name}: {t:.0f} ns "
              f"vs baseline {old:.0f} ({old / t:.2f}x)")
    return diff


def check_thread_scaling(report):
    """Rows for multi-thread runs slower than the point's threads=1 run."""
    regressions = []
    for point in report.get("points", []):
        runs = point.get("runs", [])
        base = next((r for r in runs if r.get("threads") == 1), None)
        if base is None or base.get("wall_s", 0.0) <= 0.0:
            continue
        for run in runs:
            threads = run.get("threads", 1)
            if threads <= 1:
                continue
            wall = run.get("wall_s", 0.0)
            if wall > base["wall_s"]:
                regressions.append({
                    "name": point.get("name", "?"),
                    "threads": threads,
                    "wall_s": wall,
                    "threads1_wall_s": base["wall_s"],
                })
                print(f"bench_report: WARNING point {point.get('name', '?')} "
                      f"threads={threads} wall {wall:.3f}s > threads=1 wall "
                      f"{base['wall_s']:.3f}s", file=sys.stderr)
    return regressions


def check_serve(serve, enforce_speedup, min_speedup):
    """Gate the perf_serve section; list of failure strings (correctness
    failures always gate; the speedup ratio only with enforce_speedup)."""
    failures = []
    if serve.get("dropped_total", 0):
        failures.append(f"{serve['dropped_total']} dropped request(s)")
    if serve.get("errors_total", 0):
        failures.append(f"{serve['errors_total']} error response(s)")
    if serve.get("verdict_mismatches_total", 0):
        failures.append(f"{serve['verdict_mismatches_total']} serve verdict(s) "
                        "differ from the rtpool_cli-identical reference")
    if not serve.get("reload_ok", True):
        failures.append("mid-run hot reload dropped or misrouted requests")
    speedup = serve.get("speedup_batched_sharded_vs_naive", 0.0)
    for run in serve.get("runs", []):
        print(f"bench_report: serve {run.get('name', '?'):<22} "
              f"{run.get('requests_per_s', 0.0):8.1f} req/s  "
              f"p50 {run.get('p50_ms', 0.0):.3f} ms  "
              f"p99 {run.get('p99_ms', 0.0):.3f} ms")
    print(f"bench_report: serve speedup (batched+sharded vs naive) "
          f"{speedup:.2f}x")
    if enforce_speedup and speedup < min_speedup:
        failures.append(f"serve speedup {speedup:.2f}x below the "
                        f"{min_speedup:.1f}x floor with "
                        "--enforce-serve-speedup set")
    return failures


def check_corpus(corpus):
    """Gate the corpus summary; list of failure strings. The safety gate is
    unconditional: violations mean a sound analyzer is optimistic."""
    failures = []
    schema = corpus.get("schema")
    if schema != "rtpool-corpus-summary-v1":
        failures.append(f"unexpected corpus summary schema '{schema}'")
        return failures
    sets = corpus.get("sets", 0)
    violations = corpus.get("safety_violations", 0)
    print(f"bench_report: corpus {sets} sets over seeds "
          f"[{corpus.get('seed_begin', '?')}, {corpus.get('seed_end', '?')}), "
          f"{violations} safety violation(s), "
          f"{corpus.get('generation_errors', 0)} generation error(s)")
    for analyzer in corpus.get("analyzers", []):
        gap = analyzer.get("gap", {})
        print(f"bench_report: corpus {analyzer.get('name', '?'):<34} "
              f"[{analyzer.get('mode', '?'):<6}] "
              f"accept {analyzer.get('analysis_schedulable', 0)} "
              f"optimistic {analyzer.get('optimistic', 0)} "
              f"violations {analyzer.get('safety_violations', 0)} "
              f"gap p50 {gap.get('p50', 0.0):.3f} p99 {gap.get('p99', 0.0):.3f}")
    if violations:
        failures.append(f"{violations} safety violation(s): a sound analyzer "
                        "accepted a set the simulator drove into a miss or "
                        "deadlock")
    if not corpus.get("complete", False):
        failures.append("corpus range incomplete (budget pause or early stop)")
    if sets <= 0:
        failures.append("corpus evaluated zero sets")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep", help="perf_sweep JSON report")
    parser.add_argument("--kernels", help="perf_analysis google-benchmark JSON")
    parser.add_argument("--serve", help="perf_serve JSON report")
    parser.add_argument("--enforce-serve-speedup", action="store_true",
                        help="exit 1 when the serve batched+sharded speedup "
                             "over the naive baseline is below "
                             "--min-serve-speedup (default: report-only)")
    parser.add_argument("--min-serve-speedup", type=float, default=3.0,
                        help="speedup floor for --enforce-serve-speedup "
                             "(default 3.0)")
    parser.add_argument("--baseline",
                        help="committed BENCH_analysis.json to diff against "
                             "(report-only, never affects exit status)")
    parser.add_argument("--corpus",
                        help="rtpool_corpus summary JSON "
                             "(rtpool-corpus-summary-v1); hard-gates "
                             "safety_violations == 0 and complete == true")
    parser.add_argument("--out", default="BENCH_analysis.json")
    parser.add_argument("--enforce-thread-scaling", action="store_true",
                        help="exit 1 when a multi-thread run is slower than "
                             "the same point's threads=1 run (default: "
                             "report-only warning)")
    args = parser.parse_args()

    if not args.sweep and not args.kernels and not args.serve \
            and not args.corpus:
        parser.error("need --sweep, --kernels, --serve, and/or --corpus")

    report = {"schema": "rtpool-bench-analysis-v1"}
    if args.sweep:
        report = load_json(args.sweep)

    if args.kernels:
        gbench = load_json(args.kernels)
        report["kernels"] = extract_kernels(gbench)
        context = gbench.get("context", {})
        # google-benchmark's own build type, not rtpool's: perf_sweep
        # records rtpool's build type, compiler and nproc under `build`.
        report["host"] = {
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "benchmark_library_build_type":
                context.get("library_build_type"),
        }

    serve_failures = []
    if args.serve:
        serve = load_json(args.serve)
        report["serve"] = serve
        serve_failures = check_serve(serve, args.enforce_serve_speedup,
                                     args.min_serve_speedup)

    corpus_failures = []
    if args.corpus:
        corpus = load_json(args.corpus)
        report["corpus"] = corpus
        corpus_failures = check_corpus(corpus)

    if args.baseline:
        try:
            baseline = load_json(args.baseline)
        except (OSError, ValueError) as err:
            print(f"bench_report: cannot read baseline {args.baseline}: {err}",
                  file=sys.stderr)
        else:
            report["baseline_diff"] = diff_against_baseline(report, baseline)

    scaling_regressions = check_thread_scaling(report)
    report["thread_scaling_regressions"] = scaling_regressions

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    points = report.get("points", [])
    if points and not report.get("deterministic_all", True):
        print("bench_report: determinism failure recorded in sweep input",
              file=sys.stderr)
        return 1
    admission = report.get("admission")
    if admission and not admission.get("verdicts_agree", True):
        print("bench_report: admission incremental/cold verdict "
              "disagreement recorded in sweep input", file=sys.stderr)
        return 1
    if scaling_regressions and args.enforce_thread_scaling:
        print(f"bench_report: {len(scaling_regressions)} thread-scaling "
              "regression(s) with --enforce-thread-scaling set",
              file=sys.stderr)
        return 1
    if serve_failures:
        for failure in serve_failures:
            print(f"bench_report: serve gate: {failure}", file=sys.stderr)
        return 1
    if corpus_failures:
        for failure in corpus_failures:
            print(f"bench_report: corpus gate: {failure}", file=sys.stderr)
        return 1
    cert_failures = report.get("cert_failures_total", 0)
    if cert_failures:
        print(f"bench_report: {cert_failures} certificate(s) rejected by the "
              "independent checker", file=sys.stderr)
        return 1
    certify_note = ""
    if report.get("certified_total"):
        certify_note = f", {report['certified_total']} certificates checked"
    serve_note = ""
    if report.get("serve"):
        serve_note = f", {len(report['serve'].get('runs', []))} serve runs"
    corpus_note = ""
    if report.get("corpus"):
        corpus_note = (f", corpus {report['corpus'].get('sets', 0)} sets / "
                       f"{report['corpus'].get('safety_violations', 0)} "
                       "violations")
    print(f"bench_report: wrote {args.out} "
          f"({len(points)} points, {len(report.get('kernels', []))} kernels"
          f"{certify_note}{serve_note}{corpus_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
