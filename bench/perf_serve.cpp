// Closed-loop load generator for the rtpool-serve admission service.
//
// Spins up a fresh AdmissionService + serve::TcpServer per configuration
// (real loopback TCP — the bench measures exactly the transport the daemon
// ships), drives a seeded request schedule through C closed-loop client
// threads, and records requests/s plus p50/p99 response latency. The sweep
// covers shard counts and batch sizes against the NAIVE baseline
// (shards=1, batch=1, cache=0: one dispatch per request, every request
// cold) and three workload mixes (cold-only, repeat-heavy, mixed with
// mutated resubmissions that exercise the incremental donor path). One
// extra run performs a mid-flight hot reload (workers and batch change
// while clients are blasting) and asserts that NOTHING is dropped.
//
// Every response's embedded "report" is compared against a reference
// rendered in-process through the same lint::render_json an rtpool_cli
// --format=json run produces — a single byte of difference is a verdict
// mismatch and fails the bench (exit 1), as does any dropped request.
// Results land in a JSON document that scripts/bench_report.py folds into
// BENCH_analysis.json as the "serve" section.
//
//   perf_serve --out serve.json [--requests 600] [--clients 16] [--seed 1]
//              [--analyzer global-limited] [--no-reload]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "bench_common.h"
#include "gen/taskset_generator.h"
#include "lint/render.h"
#include "model/io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"

namespace {

using namespace rtpool;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload: families of .taskset documents plus mutated variants.

/// One submittable document with its independently computed reference
/// report (what rtpool_cli --format=json prints for the same input).
struct Doc {
  std::string text;
  std::string request_body;     ///< Pre-rendered request document (the
                                ///< client measures the service, not its
                                ///< own JSON escaping).
  std::string expected_report;  ///< lint::render_json(Report, ts).
};

struct Workload {
  std::vector<Doc> docs;
  std::vector<std::size_t> schedule;  ///< Request i submits docs[schedule[i]].
};

gen::TaskSetParams family_params() {
  // Big enough that one cold admission costs ~1ms of document parsing and
  // DagTask cache construction (which dominates cold service time — this
  // repo's analysis kernels run in microseconds), small enough that the
  // client-side frame pump doesn't swamp the comparison.
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 16;
  params.total_utilization = 0.6 * 8.0;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  return params;
}

model::TaskSet generate_family(std::uint64_t seed) {
  const gen::TaskSetParams params = family_params();
  for (std::uint64_t salt = 0;; ++salt) {
    util::Rng rng(seed * 1000003 + salt);
    try {
      return gen::generate_task_set(params, rng);
    } catch (const gen::GenerationError&) {
      if (salt > 50) throw;
    }
  }
}

/// Scale the first `node ... wcet=` line of the LOWEST-priority task block
/// (numerically largest `priority=`) — a textual mutation that keeps the
/// task-name multiset (same family, same shard) while dirtying exactly one
/// task, so a warm resubmission takes the incremental donor path with the
/// longest possible clean prefix.
std::string mutate_lowest_priority_task(const std::string& text, int step) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  std::size_t best_task_line = std::string::npos;
  long best_priority = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t at = lines[i].rfind("priority=", std::string::npos);
    if (lines[i].rfind("task ", 0) != 0 || at == std::string::npos) continue;
    const long priority = std::stol(lines[i].substr(at + 9));
    if (priority > best_priority) {
      best_priority = priority;
      best_task_line = i;
    }
  }
  if (best_task_line == std::string::npos) return text;
  for (std::size_t i = best_task_line + 1; i < lines.size(); ++i) {
    if (lines[i].rfind("endtask", 0) == 0) break;
    const std::size_t at = lines[i].find("wcet=");
    if (lines[i].rfind("node ", 0) != 0 || at == std::string::npos) continue;
    std::size_t end = lines[i].find(' ', at);
    if (end == std::string::npos) end = lines[i].size();
    const double wcet = std::stod(lines[i].substr(at + 5, end - (at + 5)));
    std::ostringstream patched;
    patched << lines[i].substr(0, at + 5) << wcet * (1.0 + 0.05 * step)
            << lines[i].substr(end);
    lines[i] = patched.str();
    break;
  }
  std::ostringstream out;
  for (const std::string& l : lines) out << l << '\n';
  return out.str();
}

/// Reference verdict: exactly what the service must embed as "report".
std::string reference_report(const std::string& text,
                             const analysis::Analyzer& analyzer) {
  std::istringstream in(text);
  const model::TaskSet ts = model::read_task_set(in);
  analysis::RtaContext ctx(ts);
  const analysis::Report report =
      analyzer.analyze(ts, ctx, analysis::AnalyzerOptions{});
  return lint::render_json(report, ts);
}

Doc make_doc(const model::TaskSet& ts, const analysis::Analyzer& analyzer,
             int mutation_step, std::size_t doc_index) {
  std::ostringstream os;
  model::write_task_set(os, ts);
  Doc doc;
  doc.text = mutation_step == 0
                 ? os.str()
                 : mutate_lowest_priority_task(os.str(), mutation_step);
  doc.expected_report = reference_report(doc.text, analyzer);
  std::ostringstream req;
  util::JsonWriter w(req);
  w.begin_object();
  // append, not operator+: GCC 12 at -O3 warns -Wrestrict on "d" + string.
  w.kv("id", std::string("d").append(std::to_string(doc_index)));
  w.kv("taskset", doc.text);
  w.end_object();
  doc.request_body = req.str();
  return doc;
}

/// mix = "cold": every request a never-seen family. "repeat": requests
/// cycle over a handful of base documents (memo-bound after first touch).
/// "mixed": bases + mutated variants + a few fresh families (memo,
/// incremental and cold paths all exercised).
Workload build_workload(const std::string& mix, std::size_t requests,
                        std::uint64_t seed,
                        const analysis::Analyzer& analyzer) {
  Workload w;
  util::Rng rng(seed ^ serve::fnv1a(serve::kFnvOffset, mix));
  const auto add_family = [&](std::uint64_t family_seed, int mutants) {
    const model::TaskSet base = generate_family(family_seed);
    for (int step = 0; step <= mutants; ++step)
      w.docs.push_back(make_doc(base, analyzer, step, w.docs.size()));
  };

  if (mix == "cold") {
    // One distinct single-use family per request would dominate the run
    // with generation time; cap the distinct pool and disable reuse gains
    // via the naive-config cache instead where relevant.
    const std::size_t distinct = std::min<std::size_t>(requests, 48);
    for (std::size_t f = 0; f < distinct; ++f) add_family(seed + f, 0);
    for (std::size_t i = 0; i < requests; ++i)
      w.schedule.push_back(i % w.docs.size());
  } else if (mix == "repeat") {
    for (std::size_t f = 0; f < 4; ++f) add_family(seed + f, 0);
    for (std::size_t i = 0; i < requests; ++i)
      w.schedule.push_back(rng.index(w.docs.size()));
  } else {  // mixed
    const std::size_t families = 6, mutants = 3;
    for (std::size_t f = 0; f < families; ++f)
      add_family(seed + f, static_cast<int>(mutants));
    for (std::size_t f = 0; f < 8; ++f) add_family(seed + 100 + f, 0);
    for (std::size_t i = 0; i < requests; ++i)
      w.schedule.push_back(rng.index(w.docs.size()));
  }
  return w;
}

// ---------------------------------------------------------------------------
// One measured run.

struct RunSpec {
  std::string name;
  std::string mix;
  serve::ServiceConfig config;
  bool reload_mid_run = false;
};

struct RunResult {
  RunSpec spec;
  double wall_s = 0.0;
  double requests_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t mismatches = 0;   ///< report bytes != reference.
  std::uint64_t errors = 0;       ///< ok:false responses.
  std::uint64_t dropped = 0;      ///< submitted - answered.
  serve::ServiceStats stats;
  bool reload_done = false;
};

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

RunResult run_one(const RunSpec& spec, const Workload& workload,
                  std::size_t clients) {
  RunResult result;
  result.spec = spec;

  serve::AdmissionService service(spec.config);
  serve::TcpServer server(service, "127.0.0.1", 0);
  server.start();
  const std::uint16_t port = server.port();

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> answered{0}, mismatches{0}, errors{0};
  std::vector<std::vector<double>> latencies(clients);

  const auto client_body = [&](std::size_t client_index) {
    util::Socket socket = util::tcp_connect("127.0.0.1", port);
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= workload.schedule.size()) break;
      const Doc& doc = workload.docs[workload.schedule[i]];
      const Clock::time_point start = Clock::now();
      util::write_frame(socket, doc.request_body);
      const std::optional<std::string> response = util::read_frame(socket);
      const Clock::time_point stop = Clock::now();
      if (!response.has_value()) break;  // server gone: drop shows in count
      answered.fetch_add(1, std::memory_order_relaxed);
      latencies[client_index].push_back(
          std::chrono::duration<double, std::milli>(stop - start).count());

      if (response->find("\"ok\":true") == std::string::npos) {
        errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::string report = serve::extract_member(*response, "report");
      // render_json ends with '\n'; brace matching stops at the closing
      // brace, so re-append before the byte comparison.
      report += '\n';
      if (report != doc.expected_report)
        mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // The hot-reload run: once half the schedule is answered, commit a
  // worker + batch change from a separate control connection while the
  // clients keep blasting.
  std::thread reloader;
  if (spec.reload_mid_run) {
    reloader = std::thread([&] {
      const std::uint64_t half = workload.schedule.size() / 2;
      while (answered.load(std::memory_order_relaxed) < half)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      service.reload(std::nullopt, spec.config.workers - 1, std::nullopt,
                     std::max<std::size_t>(1, spec.config.batch / 2),
                     std::nullopt);
      result.reload_done = true;
    });
  }

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back(client_body, c);
  for (std::thread& t : threads) t.join();
  const Clock::time_point t1 = Clock::now();
  if (reloader.joinable()) reloader.join();

  service.request_shutdown();
  server.stop();

  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.completed = answered.load();
  result.mismatches = mismatches.load();
  result.errors = errors.load();
  result.dropped = workload.schedule.size() - result.completed;
  result.requests_per_s =
      result.wall_s > 0.0
          ? static_cast<double>(result.completed) / result.wall_s
          : 0.0;
  std::vector<double> all;
  for (const std::vector<double>& per_client : latencies)
    all.insert(all.end(), per_client.begin(), per_client.end());
  std::sort(all.begin(), all.end());
  result.p50_ms = percentile(all, 0.50);
  result.p99_ms = percentile(all, 0.99);
  result.stats = service.stats();
  return result;
}

void write_result(util::JsonWriter& w, const RunResult& r) {
  w.begin_object();
  w.kv("name", r.spec.name);
  w.kv("mix", r.spec.mix);
  w.kv("workers", static_cast<std::int64_t>(r.spec.config.workers));
  w.kv("shards", static_cast<std::int64_t>(r.spec.config.shards));
  w.kv("batch", static_cast<std::int64_t>(r.spec.config.batch));
  w.kv("cache", static_cast<std::int64_t>(r.spec.config.cache));
  w.kv("reload_mid_run", r.spec.reload_mid_run);
  w.kv("reload_done", r.reload_done);
  w.kv("wall_s", r.wall_s);
  w.kv("requests_per_s", r.requests_per_s);
  w.kv("p50_ms", r.p50_ms);
  w.kv("p99_ms", r.p99_ms);
  w.kv("completed", static_cast<std::int64_t>(r.completed));
  w.kv("dropped", static_cast<std::int64_t>(r.dropped));
  w.kv("errors", static_cast<std::int64_t>(r.errors));
  w.kv("verdict_mismatches", static_cast<std::int64_t>(r.mismatches));
  w.kv("memo_hits", static_cast<std::int64_t>(r.stats.memo_hits));
  w.kv("fast_hits", static_cast<std::int64_t>(r.stats.fast_hits));
  w.kv("incremental", static_cast<std::int64_t>(r.stats.incremental));
  w.kv("incremental_task_hits",
       static_cast<std::int64_t>(r.stats.incremental_task_hits));
  w.kv("cold", static_cast<std::int64_t>(r.stats.cold));
  w.kv("batches", static_cast<std::int64_t>(r.stats.batches));
  w.kv("max_batch", static_cast<std::int64_t>(r.stats.max_batch));
  w.kv("reloads", static_cast<std::int64_t>(r.stats.reloads));
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args = bench::parse_args(
        argc, argv, {"requests", "clients", "out", "analyzer", "no-reload"});
    const std::size_t requests =
        static_cast<std::size_t>(args.get_int("requests", 600));
    const std::size_t clients =
        static_cast<std::size_t>(args.get_int("clients", 16));
    const std::uint64_t seed = args.get_uint64("seed", 1);
    const std::string out = args.get_string("out", "serve_bench.json");
    const std::string analyzer_name =
        args.get_string("analyzer", "global-limited");
    const bool with_reload = !args.get_bool("no-reload", false);
    const analysis::Analyzer& analyzer = analysis::get_analyzer(analyzer_name);

    std::printf("perf_serve: building workloads (requests=%zu)\n", requests);
    const Workload mixed = build_workload("mixed", requests, seed, analyzer);
    const Workload cold = build_workload("cold", requests, seed, analyzer);
    const Workload repeat = build_workload("repeat", requests, seed, analyzer);

    const auto cfg = [&](std::size_t shards, std::size_t batch,
                         std::size_t cache) {
      serve::ServiceConfig config;
      config.analyzer = analyzer_name;
      config.workers = 4;
      config.shards = shards;
      config.batch = batch;
      config.cache = cache;
      return config;
    };

    // The naive baseline of the acceptance criterion: one request per
    // dispatch, no caches — every request is a cold analysis.
    std::vector<RunSpec> sweep = {
        {"naive", "mixed", cfg(1, 1, 0), false},
        {"batch8", "mixed", cfg(1, 8, 256), false},
        {"shard4", "mixed", cfg(4, 1, 256), false},
        {"shard4_batch8", "mixed", cfg(4, 8, 256), false},
        {"shard4_batch8_cold", "cold", cfg(4, 8, 256), false},
        {"shard4_batch8_repeat", "repeat", cfg(4, 8, 256), false},
    };
    if (with_reload)
      sweep.push_back({"shard4_batch8_reload", "mixed", cfg(4, 8, 256), true});

    std::vector<RunResult> results;
    for (const RunSpec& spec : sweep) {
      const Workload& workload = spec.mix == "cold"    ? cold
                                 : spec.mix == "repeat" ? repeat
                                                        : mixed;
      results.push_back(run_one(spec, workload, clients));
      const RunResult& r = results.back();
      std::printf(
          "  %-22s %-6s %8.1f req/s  p50 %7.3f ms  p99 %7.3f ms  "
          "(memo %llu/fast %llu, incr %llu, cold %llu, dropped %llu, "
          "mismatch %llu)\n",
          r.spec.name.c_str(), r.spec.mix.c_str(), r.requests_per_s, r.p50_ms,
          r.p99_ms, static_cast<unsigned long long>(r.stats.memo_hits),
          static_cast<unsigned long long>(r.stats.fast_hits),
          static_cast<unsigned long long>(r.stats.incremental),
          static_cast<unsigned long long>(r.stats.cold),
          static_cast<unsigned long long>(r.dropped),
          static_cast<unsigned long long>(r.mismatches));
    }

    double naive_rps = 0.0, best_rps = 0.0;
    std::uint64_t dropped_total = 0, mismatch_total = 0, error_total = 0;
    bool reload_ok = !with_reload;
    for (const RunResult& r : results) {
      if (r.spec.name == "naive") naive_rps = r.requests_per_s;
      if (r.spec.name == "shard4_batch8") best_rps = r.requests_per_s;
      if (r.spec.reload_mid_run)
        reload_ok = r.reload_done && r.dropped == 0 && r.stats.reloads >= 1;
      dropped_total += r.dropped;
      mismatch_total += r.mismatches;
      error_total += r.errors;
    }
    const double speedup = naive_rps > 0.0 ? best_rps / naive_rps : 0.0;

    std::ofstream os(out);
    util::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "rtpool-serve-bench-v1");
    w.kv("analyzer", analyzer_name);
    w.kv("requests", static_cast<std::int64_t>(requests));
    w.kv("clients", static_cast<std::int64_t>(clients));
    w.kv("seed", static_cast<std::int64_t>(seed));
    w.key("runs");
    w.begin_array();
    for (const RunResult& r : results) write_result(w, r);
    w.end_array();
    w.kv("speedup_batched_sharded_vs_naive", speedup);
    w.kv("dropped_total", static_cast<std::int64_t>(dropped_total));
    w.kv("verdict_mismatches_total", static_cast<std::int64_t>(mismatch_total));
    w.kv("errors_total", static_cast<std::int64_t>(error_total));
    w.kv("reload_ok", reload_ok);
    w.end_object();
    os << '\n';
    os.close();

    std::printf("perf_serve: speedup (shard4_batch8 vs naive) = %.2fx\n",
                speedup);
    std::printf("perf_serve: wrote %s\n", out.c_str());
    if (mismatch_total > 0 || error_total > 0 || dropped_total > 0 ||
        !reload_ok) {
      std::fprintf(stderr,
                   "perf_serve: FAILED (mismatches=%llu errors=%llu "
                   "dropped=%llu reload_ok=%d)\n",
                   static_cast<unsigned long long>(mismatch_total),
                   static_cast<unsigned long long>(error_total),
                   static_cast<unsigned long long>(dropped_total),
                   reload_ok ? 1 : 0);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_serve: %s\n", e.what());
    return 1;
  }
}
