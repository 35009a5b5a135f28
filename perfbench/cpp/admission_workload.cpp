// Workloads `admit_cold` and `admit_warm`: rtpool-serve's admission service
// (serve::AdmissionService behind serve::TcpServer, 2 workers, default
// shards/batch/cache) fed over loopback TCP by 2 closed-loop client
// connections. An op is one request: frame out, verdict frame back.
//
// Every system has 16 tasks on 8 cores (NFJ graphs with 3-5 branches, about
// 700 nodes) and task names unique to the system, so each system is its own
// family (the service shards and picks donors by family).
//
//  * admit_cold: kColdRequests never-seen systems a pass, fresh every pass;
//    requests alternate global-limited / partitioned-proposed, all with
//    certify. Utilization U/m is drawn from [0.15, 0.60] so both verdicts
//    occur. No memo or donor can answer any of them.
//  * admit_warm: kWarmBases systems are submitted once in setup; a pass is
//    kWarmRequests resubmissions in a seeded order, a third of each kind:
//    byte-identical copies (pre-parse text memo), copies under a fresh '#'
//    header line (post-parse memo) and one-task WCET edits of the
//    lowest-priority task (incremental donor path). No certify.
//
// Checks: every response's "report" is byte-identical to an in-process
// read_task_set -> analyze -> lint::render_json of the same text; every
// certified response carries "certificate_ok":true; every admit_cold
// response took path "cold"; admit_warm responses took the path of their
// kind.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/cert_check.h"
#include "analysis/rta_context.h"
#include "common.h"
#include "gen/taskset_generator.h"
#include "graph/reachability.h"
#include "lint/render.h"
#include "model/io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"

namespace rtbench {
namespace {

using namespace rtpool;

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kColdRequests = 100;
constexpr std::size_t kColdWarmup = 8;
constexpr std::size_t kWarmBases = 8;
constexpr std::size_t kWarmRequests = 300;
constexpr const char* kAnalyzers[] = {"global-limited", "partitioned-proposed"};

enum class Kind { kCold, kIdentical, kHeader, kEdit };

const char* expected_path(Kind kind) {
  switch (kind) {
    case Kind::kCold: return "cold";
    case Kind::kIdentical:
    case Kind::kHeader: return "memo";
    case Kind::kEdit: return "incremental";
  }
  return "";
}

struct Request {
  Kind kind = Kind::kCold;
  std::size_t base = 0;       ///< admit_warm: index of the base system.
  std::string analyzer;
  bool certify = false;
  std::string text;           ///< The .taskset document.
  std::string body;           ///< The request frame payload.
};

/// One generated system: 16 tasks, U/m in [lo, hi], task names prefixed
/// with `tag` so the system is a family of its own.
std::string make_system(const util::Rng& root, std::uint64_t id,
                        const std::string& tag) {
  util::Rng rng = root.fork_with(id);
  gen::TaskSetParams params;
  params.cores = 8;
  params.task_count = 16;
  params.nfj.min_branches = 3;
  params.nfj.max_branches = 5;
  params.total_utilization = rng.uniform(0.15, 0.60) * 8.0;
  for (int attempt = 0;; ++attempt) {
    try {
      const model::TaskSet ts = gen::generate_task_set(params, rng);
      std::ostringstream os;
      model::write_task_set(os, ts);
      std::string text = os.str();
      const std::string from = "task name=";
      for (std::size_t at = text.find(from); at != std::string::npos;
           at = text.find(from, at + from.size()))
        text.insert(at + from.size(), tag);
      return text;
    } catch (const gen::GenerationError&) {
      require(attempt < 50, "admission: generator keeps failing");
    }
  }
}

/// Scale the first node WCET of the lowest-priority task by `factor`: a
/// one-task edit that keeps the family, so the service's donor for the
/// family serves every other task's fixed point.
std::string edit_lowest_priority(const std::string& text, double factor) {
  std::size_t task_at = std::string::npos;
  long lowest = -1;
  for (std::size_t at = text.find("\ntask "); at != std::string::npos;
       at = text.find("\ntask ", at + 1)) {
    const std::size_t p = text.find("priority=", at);
    const long priority = std::stol(text.substr(p + 9));
    if (priority > lowest) {
      lowest = priority;
      task_at = at;
    }
  }
  const std::size_t w = text.find("wcet=", task_at) + 5;
  const std::size_t end = text.find(' ', w);
  char value[40];
  std::snprintf(value, sizeof value, "%.17g",
                std::stod(text.substr(w, end - w)) * factor);
  return text.substr(0, w) + value + text.substr(end);
}

std::string request_body(const std::string& id, const Request& r) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("id", id);
  w.kv("analyzer", r.analyzer);
  w.kv("certify", r.certify);
  w.kv("taskset", r.text);
  w.end_object();
  return os.str();
}

/// The in-process reference: what rtpool_cli --format=json prints.
std::string reference_report(const Request& r) {
  std::istringstream is(r.text);
  const model::TaskSet ts = model::read_task_set(is);
  analysis::AnalyzerOptions opts;
  opts.diagnostics = r.certify;
  const analysis::Report report =
      analysis::get_analyzer(r.analyzer).analyze(ts, opts);
  return lint::render_json(report, ts);
}

class AdmissionWorkload final : public Workload {
 public:
  AdmissionWorkload(const WorkloadOptions& options, bool warm)
      : options_(options), warm_(warm), root_(options.seed * 7919 + 13) {}

  ~AdmissionWorkload() override { teardown(); }

  void setup() override {
    serve::ServiceConfig config;
    config.workers = kWorkers;
    service_ = std::make_unique<serve::AdmissionService>(config);
    server_ = std::make_unique<serve::TcpServer>(*service_, "127.0.0.1", 0);
    server_->start();
    for (std::size_t c = 0; c < kClients; ++c)
      sockets_.push_back(util::tcp_connect("127.0.0.1", server_->port()));

    // Untimed warm-up through the same connections.
    std::vector<Request> warmup;
    if (warm_) {
      bases_.clear();
      for (std::size_t b = 0; b < kWarmBases; ++b) {
        Request r;
        r.kind = Kind::kCold;
        r.base = b;
        r.analyzer = kAnalyzers[b % 2];
        r.text = make_system(root_, fresh_id(), "w" + std::to_string(b) + "_");
        base_reports_.push_back(reference_report(r));
        bases_.push_back(r);
        warmup.push_back(r);
      }
    } else {
      for (std::size_t i = 0; i < kColdWarmup; ++i) warmup.push_back(cold_request(i));
    }
    for (std::size_t i = 0; i < warmup.size(); ++i)
      warmup[i].body = request_body("warmup" + std::to_string(i), warmup[i]);
    requests_ = std::move(warmup);
    (void)run_requests();
    for (const std::string& response : responses_)
      require(response.find("\"ok\":true") != std::string::npos,
              "admission warm-up request failed: " + response.substr(0, 200));
    prepare_pass(0);
  }

  void teardown() override {
    sockets_.clear();
    if (server_ != nullptr) server_->stop();
    server_.reset();
    service_.reset();
    base_reports_.clear();
  }

  void prepare_pass(int pass) override {
    requests_.clear();
    if (!warm_) {
      for (std::size_t i = 0; i < kColdRequests; ++i)
        requests_.push_back(cold_request(i));
    } else {
      util::Rng order = root_.fork_with(0xabcdef00ull + static_cast<std::uint64_t>(pass));
      std::vector<std::size_t> slots(kWarmRequests);
      for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
      order.shuffle(slots);
      for (const std::size_t slot : slots) {
        Request r = bases_[slot % kWarmBases];
        r.kind = static_cast<Kind>(1 + (slot / kWarmBases) % 3);
        const std::uint64_t id = fresh_id();
        if (r.kind == Kind::kHeader)
          r.text = "# resubmitted " + std::to_string(id) + "\n" + r.text;
        else if (r.kind == Kind::kEdit)
          r.text = edit_lowest_priority(r.text, 1.0 + 1e-4 * static_cast<double>(id));
        requests_.push_back(std::move(r));
      }
    }
    for (std::size_t i = 0; i < requests_.size(); ++i)
      requests_[i].body = request_body(
          "p" + std::to_string(pass) + "-" + std::to_string(i), requests_[i]);
  }

  PassSample run_pass(int) override {
    const serve::ServiceStats before = service_->stats();
    PassSample s = run_requests();
    const serve::ServiceStats after = service_->stats();
    pass_counts_ = {
        {"fast_hits", after.fast_hits - before.fast_hits},
        {"memo_hits", after.memo_hits - before.memo_hits},
        {"incremental", after.incremental - before.incremental},
        {"cold", after.cold - before.cold},
        {"incremental_task_hits",
         after.incremental_task_hits - before.incremental_task_hits},
        {"batches", after.batches - before.batches},
        {"received", after.received - before.received},
        {"certified", after.certified - before.certified},
        {"cert_failures", after.cert_failures - before.cert_failures},
    };
    for (const auto& [key, value] : pass_counts_) run_counts_[key] += value;
    return s;
  }

  void check_pass(int) override {
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const Request& r = requests_[i];
      std::string& response = responses_[i];
      const std::string at = "request " + std::to_string(i) + ": ";
      require(response.find("\"ok\":true") != std::string::npos,
              at + "error response: " + response.substr(0, 200));
      const std::string expected = r.kind == Kind::kIdentical
                                       ? base_reports_[r.base]
                                       : reference_report(r);
      if (options_.corrupt != 0 && i == 0)
        response[response.find("\"report\"") + 12] ^= 1;  // a byte of the report
      require(serve::extract_member(response, "report") + "\n" == expected,
              at + "report differs from the in-process reference");
      if (r.certify)
        require(response.find("\"certificate_ok\":true") != std::string::npos,
                at + "certificate not accepted by the checker");
      const std::string path = serve::extract_member(response, "path");
      require(path == std::string("\"") + expected_path(r.kind) + "\"",
              at + "path " + path + ", expected " + expected_path(r.kind));
    }
  }

  void check_run() override {
    require(run_counts_["cert_failures"] == 0,
            "admission: the service's certificate checker rejected a certificate");
  }

  /// The service's per-request calls, in its order: parse_json +
  /// decode_request (connection thread), then for memo misses
  /// read_task_set, fingerprint, analyze, check_certificate, render_json
  /// and the canonical write_task_set; post-parse memo hits stop after
  /// the canonical write. graph::Reachability over each task DAG is a
  /// probe of the model build (off the path).
  double replay(Tracer* tracer) override {
    const Clock::time_point t0 = Clock::now();
    std::optional<analysis::RtaContext> ctx;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const Request& r = requests_[i];
      Scope op(tracer, "serve.request", i);
      serve::Request decoded;
      {
        Scope s(tracer, "serve.decode", i);
        decoded = serve::decode_request(util::parse_json(r.body));
      }
      if (r.kind == Kind::kIdentical) continue;
      std::optional<model::TaskSet> ts;
      {
        Scope s(tracer, "model.parse", i);
        std::istringstream is(decoded.taskset_text);
        ts.emplace(model::read_task_set(is));
      }
      {
        Scope s(tracer, "serve.fingerprint", i);
        (void)serve::fingerprint(*ts);
      }
      if (r.kind != Kind::kHeader) {
        {
          Scope s(tracer, "graph.closure", i, /*on_path=*/false);
          for (const model::DagTask& task : ts->tasks())
            (void)graph::Reachability(task.dag());
        }
        const analysis::Analyzer& analyzer = analysis::get_analyzer(r.analyzer);
        {
          Scope s(tracer, "analysis.context", i);
          if (ctx.has_value())
            ctx->reset(*ts);
          else
            ctx.emplace(*ts);
        }
        analysis::AnalyzerOptions opts;
        opts.diagnostics = r.certify;
        analysis::Report report;
        {
          Scope s(tracer, r.certify ? "analysis.cert" : "analysis.rta", i);
          report = analyzer.analyze(*ts, *ctx, opts);
        }
        {
          Scope s(tracer, "lint.render", i);
          (void)lint::render_json(report, *ts);
          if (r.certify && report.certificate != nullptr)
            (void)lint::render_json(*report.certificate, *ts);
        }
        if (r.certify && report.certificate != nullptr) {
          Scope s(tracer, "analysis.cert_check", i);
          require(analysis::cert::check_certificate(*ts, *report.certificate).ok(),
                  "replay: certificate rejected");
        }
      }
      {
        Scope s(tracer, "model.write", i);
        std::ostringstream os;
        model::write_task_set(os, *ts);
      }
    }
    return seconds_since(t0);
  }

  LayerMetrics layer_metrics(const Tracer& tracer,
                             const PassSample& pass) override {
    const auto mean_us = [&](const char* name) {
      return tracer.mean_self_us(name);
    };
    std::vector<double> on_path_ms;
    for (const auto& [op, us] : tracer.on_path_us_per_op())
      on_path_ms.push_back(us * 1e-3);
    const double unaccounted = median(pass.op_ms) - median(on_path_ms);
    LayerMetrics m;
    if (!warm_) {
      m["graph.closure_us"] = {mean_us("graph.closure"), "us"};
      m["model.parse_us"] = {mean_us("model.parse"), "us"};
      m["model.write_us"] = {mean_us("model.write"), "us"};
      m["analysis.cert_us"] = {mean_us("analysis.cert"), "us"};
      m["analysis.cert_check_us"] = {mean_us("analysis.cert_check"), "us"};
      m["lint.render_us"] = {mean_us("lint.render"), "us"};
      m["serve.unaccounted_ms"] = {unaccounted, "ms"};
      return m;
    }
    m["serve.decode_us"] = {mean_us("serve.decode"), "us"};
    m["serve.fingerprint_us"] = {mean_us("serve.fingerprint"), "us"};
    m["serve.warm_unaccounted_ms"] = {unaccounted, "ms"};
    m["serve.control_rtt_us"] = {control_rtt_us(), "us"};
    for (const char* key : {"fast_hits", "memo_hits", "incremental", "cold",
                            "incremental_task_hits"})
      m[std::string("serve.") + key] = {
          static_cast<double>(pass_counts_[key]), "count"};
    const double batches = static_cast<double>(pass_counts_["batches"]);
    m["serve.mean_batch"] = {
        batches > 0.0 ? static_cast<double>(pass_counts_["received"] -
                                            pass_counts_["fast_hits"]) /
                            batches
                      : 0.0,
        "ratio"};
    return m;
  }

  std::map<std::string, std::uint64_t> record_counts() override {
    return run_counts_;
  }

 private:
  std::uint64_t fresh_id() { return next_id_++; }

  Request cold_request(std::size_t i) {
    Request r;
    r.kind = Kind::kCold;
    r.analyzer = kAnalyzers[i % 2];
    r.certify = true;
    const std::uint64_t id = fresh_id();
    r.text = make_system(root_, id, "c" + std::to_string(id) + "_");
    return r;
  }

  /// Closed loop: each client sends its next request only after the
  /// previous verdict arrived; both pull from one shared cursor.
  PassSample run_requests() {
    PassSample s;
    responses_.assign(requests_.size(), std::string());
    std::vector<double> latency(requests_.size(), 0.0);
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::uint64_t> failed{0};
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        util::Socket& socket = sockets_[c];
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= requests_.size()) return;
          const Clock::time_point op0 = Clock::now();
          util::write_frame(socket, requests_[i].body);
          std::optional<std::string> response = util::read_frame(socket);
          latency[i] = seconds_since(op0) * 1e3;
          if (!response.has_value()) {
            failed.fetch_add(requests_.size());  // connection gone
            return;
          }
          if (response->find("\"ok\":true") == std::string::npos)
            failed.fetch_add(1);
          responses_[i] = std::move(*response);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    s.wall_s = seconds_since(t0);
    s.cpu_s = process_cpu_seconds() - cpu0;
    s.op_ms = std::move(latency);
    s.failed = std::min<std::uint64_t>(failed.load(), requests_.size());
    return s;
  }

  /// Median round trip of {"cmd":"stats"} over one client connection.
  double control_rtt_us() {
    std::vector<double> rtt;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      util::write_frame(sockets_[0], R"({"cmd":"stats"})");
      const std::optional<std::string> response = util::read_frame(sockets_[0]);
      rtt.push_back(seconds_since(t0) * 1e6);
      require(response.has_value() &&
                  response->find("\"stats\"") != std::string::npos,
              "admission: stats control request failed");
    }
    return median(rtt);
  }

  WorkloadOptions options_;
  bool warm_;
  util::Rng root_;
  std::uint64_t next_id_ = 0;
  std::unique_ptr<serve::AdmissionService> service_;
  std::unique_ptr<serve::TcpServer> server_;
  std::vector<util::Socket> sockets_;
  std::vector<Request> bases_;
  std::vector<std::string> base_reports_;
  std::vector<Request> requests_;
  std::vector<std::string> responses_;
  std::map<std::string, std::uint64_t> pass_counts_, run_counts_;
};

}  // namespace

std::unique_ptr<Workload> make_admission_workload(const WorkloadOptions& options,
                                                  bool warm) {
  return std::make_unique<AdmissionWorkload>(options, warm);
}

}  // namespace rtbench
