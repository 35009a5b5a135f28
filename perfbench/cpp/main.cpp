// rtbench: runs one workload of the rtpool end-to-end benchmark in this
// process and prints its figures. perfbench/run.py builds this binary and
// runs it once per workload; see perfbench/README.md for what is measured.
//
//   rtbench --workload corpus|admit_cold|admit_warm|sweep --seed N
//           --seconds S [--trace 0|1] [--trace-out FILE] [--corrupt 0|1]
//           [--data-dir DIR]   (holds corpus_costs.txt; default perfbench)
//   rtbench --calibrate 1      (measure and print corpus_costs.txt)
//
// Untraced (--trace 0): run whole passes, each over a fixed input list made
// from the seed and the pass number, until S seconds have gone by (at least
// kMinPasses). Every pass is set up afresh (teardown, then a timed setup),
// so the setups spread over the run like the passes do. Every end-to-end
// figure, setup_s included, is computed per pass and reported as the median
// over passes. A failed op fails the run. Traced (--trace 1):
// kTraceRepeats times, one pass, then the same inputs replayed through the
// layers' public calls without and with spans (in alternating order); prints the median of each
// per-layer metric over the repeats and the replay walls the tracing
// overhead is taken from.
//
// The last line of standard output is one JSON object; exit status 0 means
// every check passed, 1 a failed check, 2 a usage or build error.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "util/args.h"
#include "util/json.h"

#ifndef RTBENCH_BUILD_TYPE
#define RTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RTBENCH_COMPILER
#define RTBENCH_COMPILER "unknown"
#endif

namespace {

using namespace rtbench;

constexpr int kMinPasses = 5;
constexpr int kMaxPasses = 400;
constexpr int kTraceRepeats = 4;

/// The benchmark's own 4 MiB random cycle (Sattolo's shuffle), built once.
const std::vector<std::uint32_t>& reference_cycle() {
  static const std::vector<std::uint32_t> cycle = [] {
    std::vector<std::uint32_t> next(1u << 20);
    for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = next.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(next[i], next[x % i]);
    }
    return next;
  }();
  return cycle;
}

/// A fixed loop of the benchmark's own, timed before every pass: 2^18 steps
/// of a chase through reference_cycle() (cache and memory bound, like
/// rtpool's simulator and model build). Its time moves only with the host,
/// so slow host stretches show in the per-pass log next to the workload's
/// figures.
double reference_loop_ms() {
  const std::vector<std::uint32_t>& cycle = reference_cycle();
  const Clock::time_point t0 = Clock::now();
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < (1u << 18); ++i) at = cycle[at];
  const double ms = seconds_since(t0) * 1e3;
  if (at == 0xffffffffu) std::printf("#");  // keeps the chase observable
  return ms;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "corpus") return make_corpus_workload(options);
  if (name == "admit_cold") return make_admission_workload(options, false);
  if (name == "admit_warm") return make_admission_workload(options, true);
  if (name == "sweep") return make_sweep_workload(options);
  return nullptr;
}

void print_record(const std::string& workload, std::uint64_t seed,
                  double seconds, bool trace) {
  std::printf("rtbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0);
  std::printf("rtbench: rtpool build type=%s compiler=%s nproc=%ld\n",
              RTBENCH_BUILD_TYPE, RTBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN));
}

void emit_metric(rtpool::util::JsonWriter& w, const std::string& name,
                 double value, const char* unit) {
  w.key(name);
  w.begin_object();
  w.kv("value", value);
  w.kv("unit", unit);
  w.end_object();
}

int run_untraced(Workload& wl, double seconds, double cycle_mib) {
  std::vector<double> setup_s, throughput, p50, tail, cpu_per_op;
  std::uint64_t attempted = 0, failed = 0;
  double tail_pct = 0.0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    if (pass > 0) {
      wl.teardown();
      // Hand the torn-down pass's free heap back to the system, so every
      // pass starts from the same resident base and peak_rss_mb is the
      // largest pass, not the pass at which fragmentation added up.
      malloc_trim(0);
    }
    const Clock::time_point setup0 = Clock::now();
    wl.setup();
    setup_s.push_back(seconds_since(setup0));
    if (pass > 0) wl.prepare_pass(pass);
    const double ref_ms = reference_loop_ms();
    const PassSample s = wl.run_pass(pass);
    require(s.failed == 0, std::to_string(s.failed) + " of " +
                               std::to_string(s.op_ms.size()) +
                               " ops failed in pass " + std::to_string(pass));
    wl.check_pass(pass);
    const double ops = static_cast<double>(s.op_ms.size());
    attempted += s.op_ms.size();
    failed += s.failed;
    throughput.push_back(ops / s.wall_s);
    p50.push_back(median(s.op_ms));
    double pct = 0.0;
    tail.push_back(tail_value(s.op_ms, 10, &pct));
    tail_pct = pct;
    cpu_per_op.push_back(s.cpu_s * 1e3 / ops);
    std::printf(
        "rtbench: pass %d: setup=%.4f s ops=%zu wall=%.4f s  %.2f op/s  "
        "p50=%.4f ms  p%.1f=%.4f ms  cpu/op=%.4f ms  ref_loop=%.3f ms\n",
        pass, setup_s.back(), s.op_ms.size(), s.wall_s, throughput.back(),
        p50.back(), pct, tail.back(), cpu_per_op.back(), ref_ms);
    std::fflush(stdout);
    if (pass + 1 >= kMinPasses && seconds_since(start) >= seconds) break;
  }
  wl.check_run();
  for (const auto& [key, value] : wl.record_counts())
    std::printf("rtbench: count %s=%llu\n", key.c_str(),
                static_cast<unsigned long long>(value));
  wl.teardown();
  std::printf("rtbench: %zu passes; tail_ms is p%.1f of each pass (%zu ops, "
              "10 beyond it)\n",
              throughput.size(), tail_pct,
              static_cast<std::size_t>(attempted / throughput.size()));

  std::ostringstream os;
  rtpool::util::JsonWriter w(os);
  w.begin_object();
  w.kv("correct", true);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("metrics");
  w.begin_object();
  emit_metric(w, "throughput_per_s", median(throughput), "1/s");
  emit_metric(w, "p50_ms", median(p50), "ms");
  emit_metric(w, "tail_ms", median(tail), "ms");
  emit_metric(w, "cpu_ms_per_op", median(cpu_per_op), "ms");
  emit_metric(w, "setup_s", median(setup_s), "s");
  // The reference cycle is resident from before setup to the end, so the
  // workload's own peak is the process peak without it.
  emit_metric(w, "peak_rss_mb", peak_rss_mib() - cycle_mib, "MB");
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
  return 0;
}

int run_traced(Workload& wl, const std::string& trace_out) {
  wl.setup();
  std::vector<LayerMetrics> reps;
  std::uint64_t attempted = 0, failed = 0;
  double untraced_s = 0.0, traced_s = 0.0, layer_s = 0.0;
  for (int rep = 0; rep < kTraceRepeats; ++rep) {
    if (rep > 0) wl.prepare_pass(rep);
    const PassSample pass = wl.run_pass(rep);
    require(pass.failed == 0, std::to_string(pass.failed) + " of " +
                                  std::to_string(pass.op_ms.size()) +
                                  " ops failed in pass " + std::to_string(rep));
    wl.check_pass(rep);
    attempted += pass.op_ms.size();
    failed += pass.failed;
    // Alternate which replay goes first, so a warm-up advantage of the
    // second one cancels over the repeats.
    Tracer tracer;
    double untraced = 0.0, traced = 0.0;
    if (rep % 2 == 0) {
      untraced = wl.replay(nullptr);
      traced = wl.replay(&tracer);
    } else {
      traced = wl.replay(&tracer);
      untraced = wl.replay(nullptr);
    }
    untraced_s += untraced;
    traced_s += traced;
    layer_s += tracer.layer_span_us() * 1e-6;
    reps.push_back(wl.layer_metrics(tracer, pass));
    std::printf(
        "rtbench: pass %.4f s, replay untraced %.4f s, traced %.4f s, %zu "
        "spans\n",
        pass.wall_s, untraced, traced, tracer.spans().size());
    if (rep + 1 == kTraceRepeats && !trace_out.empty())
      tracer.write_json(trace_out);
  }
  wl.check_run();
  for (const auto& [key, value] : wl.record_counts())
    std::printf("rtbench: count %s=%llu\n", key.c_str(),
                static_cast<unsigned long long>(value));
  wl.teardown();

  std::ostringstream os;
  rtpool::util::JsonWriter w(os);
  w.begin_object();
  w.kv("correct", true);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("layers");
  w.begin_object();
  for (const auto& [name, first] : reps.front()) {
    std::vector<double> values;
    for (const LayerMetrics& rep : reps) values.push_back(rep.at(name).value);
    emit_metric(w, name, median(values), first.unit);
  }
  w.end_object();
  w.key("trace");
  w.begin_object();
  w.kv("untraced_s", untraced_s);
  w.kv("traced_s", traced_s);
  w.kv("layer_span_s", layer_s);
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "rtbench: refusing to run: built without NDEBUG (build type "
               "%s); only a Release build is measured\n",
               RTBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::strcmp(RTBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "rtbench: refusing to run: rtpool build type is %s, not "
                 "Release\n",
                 RTBENCH_BUILD_TYPE);
    return 2;
  }
  std::string name;
  WorkloadOptions options;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool calibrate = false;
  try {
    const rtpool::util::Args args(
        argc, argv, {"workload", "seed", "seconds", "trace", "trace-out", "corrupt",
                     "calibrate", "data-dir"});
    name = args.get_string("workload", "");
    options.seed = args.get_uint64("seed", 1);
    seconds = args.get_double("seconds", 10.0);
    trace = args.get_int("trace", 0) != 0;
    trace_out = args.get_string("trace-out", "");
    options.corrupt = static_cast<int>(args.get_int("corrupt", 0));
    calibrate = args.get_int("calibrate", 0) != 0;
    options.data_dir = args.get_string("data-dir", options.data_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtbench: %s\n", e.what());
    return 2;
  }
  if (calibrate) {
    print_corpus_costs();
    return 0;
  }
  std::unique_ptr<Workload> wl = make_workload(name, options);
  if (wl == nullptr) {
    std::fprintf(stderr,
                 "rtbench: unknown --workload '%s' (corpus, admit_cold, "
                 "admit_warm, sweep)\n",
                 name.c_str());
    return 2;
  }
  print_record(name, options.seed, seconds, trace);
  // Build the reference cycle before any workload memory, so the cycle's
  // resident size can be kept out of peak_rss_mb.
  const double rss0 = current_rss_mib();
  (void)reference_cycle();
  const double cycle_mib = current_rss_mib() - rss0;
  try {
    return trace ? run_traced(*wl, trace_out)
                 : run_untraced(*wl, seconds, cycle_mib);
  } catch (const CheckFailure& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "rtbench: CHECK FAILED (%s): %s\n", name.c_str(),
                 e.what());
    return 1;
  }
}
