// Workload `sweep`: the four canonical Figure-2 points of bench/perf_sweep
// (l_max = 4 filtered and m = 8 unfiltered, each with the global and the
// partitioned analyzer pair), one thread. An op is one fig2 trial: an
// ExperimentEngine(1)::evaluate_point call for one accepted set, which
// generates (and, on the filtered points, discards and regenerates) task
// sets until the baseline filter admits one. A pass is kTrialsPerPoint
// trials of every point; pass p's trial i of a point draws from its own
// fork of (seed, point, p), so every pass is a fresh draw of the same mix
// and the median over passes averages over draws as well as over the host.
// The untimed warm-up runs fixed trials that do not depend on the seed, so
// setup_s does the same work for every seed.
//
// Checks: every trial accepts a set within its attempt budget (one that does
// not counts as a failed op, which fails the run); on the global points no
// set is accepted by global-limited and rejected by global-baseline; every
// accepted set of a filtered point is baseline-schedulable; a certified run
// of every point (certify_sample) reports zero checker rejections and equals
// the same run on a 2-thread engine; the replay of the last pass reproduces
// every trial's verdicts.
#include <optional>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "common.h"
#include "exp/schedulability.h"
#include "gen/taskset_generator.h"
#include "util/rng.h"

namespace rtbench {
namespace {

using namespace rtpool;

constexpr std::size_t kTrialsPerPoint = 500;
constexpr std::size_t kWarmupTrials = 50;
constexpr int kCertifyTrials = 40;

struct Point {
  const char* name;
  exp::Scheduler scheduler;
  exp::PointConfig config;
  std::uint64_t salt;
};

/// perf_sweep's canonical points, one trial per evaluate_point call.
std::vector<Point> canonical_points() {
  exp::PointConfig lmax;
  lmax.gen.cores = 8;
  lmax.gen.task_count = 6;
  lmax.gen.nfj.min_branches = 3;
  lmax.gen.nfj.max_branches = 5;
  lmax.gen.blocking_window = gen::BlockingWindow{4, 4};
  lmax.filter_baseline = true;
  lmax.trials = 1;
  lmax.max_attempts = 400;
  exp::PointConfig m8;
  m8.gen.cores = 8;
  m8.gen.task_count = 6;
  m8.gen.nfj.min_branches = 3;
  m8.gen.nfj.max_branches = 5;
  m8.gen.total_utilization = 0.3 * 8.0;
  m8.filter_baseline = false;
  m8.trials = 1;
  m8.max_attempts = 100;
  std::vector<Point> points;
  lmax.gen.total_utilization = 0.45 * 8.0;
  points.push_back({"fig2_lmax4_global", exp::Scheduler::kGlobal, lmax, 1000003});
  lmax.gen.total_utilization = 0.175 * 8.0;
  points.push_back(
      {"fig2_lmax4_partitioned", exp::Scheduler::kPartitioned, lmax, 2000003});
  points.push_back({"fig2_m8_global", exp::Scheduler::kGlobal, m8, 3000017});
  points.push_back(
      {"fig2_m8_partitioned", exp::Scheduler::kPartitioned, m8, 4000037});
  return points;
}

struct Trial {
  std::size_t point = 0;
  util::Rng rng{0};
};

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(const WorkloadOptions& options) : options_(options) {}

  void setup() override {
    points_ = canonical_points();
    make_trials(0);
    // Untimed warm-up: kWarmupTrials fixed trials of every point.
    exp::ExperimentEngine engine(1);
    for (const Point& point : points_) {
      const util::Rng root(point.salt);
      for (std::size_t i = 0; i < kWarmupTrials; ++i)
        (void)engine.evaluate_point(exp::analyzers_for(point.scheduler),
                                    point.config, root.fork_with(i));
    }
  }

  void teardown() override {}
  void prepare_pass(int pass) override { make_trials(pass); }

  PassSample run_pass(int) override {
    PassSample s;
    results_.clear();
    exp::ExperimentEngine engine(1);
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    for (const Trial& trial : trials_) {
      const Point& point = points_[trial.point];
      const Clock::time_point op0 = Clock::now();
      results_.push_back(engine.evaluate_point(
          exp::analyzers_for(point.scheduler), point.config, trial.rng));
      s.op_ms.push_back(seconds_since(op0) * 1e3);
      if (results_.back().accepted != 1) ++s.failed;
    }
    s.wall_s = seconds_since(t0);
    s.cpu_s = process_cpu_seconds() - cpu0;
    return s;
  }

  void check_pass(int) override {
    for (std::size_t k = 0; k < results_.size(); ++k) {
      const Point& point = points_[trials_[k].point];
      const exp::PointResult& r = results_[k];
      const std::string at = std::string(point.name) + " trial " +
                             std::to_string(k % kTrialsPerPoint) + ": ";
      for (const exp::SetVerdict& v : r.verdicts)
        require(point.scheduler != exp::Scheduler::kGlobal || v.baseline ||
                    !v.proposed,
                at + "accepted by global-limited, rejected by global-baseline");
      if (point.config.filter_baseline)
        require(r.baseline_schedulable == r.accepted,
                at + "filtered point accepted a baseline-unschedulable set");
    }
  }

  void check_run() override {
    for (const Point& point : points_) {
      exp::PointConfig config = point.config;
      config.trials = kCertifyTrials;
      config.max_attempts = point.config.max_attempts * kCertifyTrials;
      config.certify_sample = kCertifyTrials / 4;
      const util::Rng root(options_.seed * point.salt + 29);
      exp::ExperimentEngine one(1);
      exp::ExperimentEngine two(2);
      const exp::AnalyzerPair pair = exp::analyzers_for(point.scheduler);
      const exp::PointResult r1 = one.evaluate_point(pair, config, root);
      exp::PointResult r2 = two.evaluate_point(pair, config, root);
      if (options_.corrupt != 0 && !r2.verdicts.empty())
        r2.verdicts.front().proposed = !r2.verdicts.front().proposed;
      const std::string at = std::string(point.name) + ": ";
      require(r1.certified > 0, at + "certify sample checked nothing");
      require(r1.cert_failures == 0, at + "certificate checker rejections");
      require(r1 == r2, at + "threads=1 and threads=2 results differ");
    }
    (void)replay(nullptr);
    require(replayed_ == results_,
            "sweep: replayed verdicts differ from evaluate_point's");
  }

  /// evaluate_point's attempt loop, call by call: attempt k of a trial
  /// draws from the trial root's fork_with(k); generate_task_set, rebind
  /// the context, the baseline (after its partitioner on the partitioned
  /// points), then — unless the filter discards the set — the proposed
  /// analyzer the same way.
  double replay(Tracer* tracer) override {
    replayed_.clear();
    attempts_ = 0;
    std::optional<analysis::RtaContext> ctx;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < trials_.size(); ++k) {
      const Point& point = points_[trials_[k].point];
      const exp::AnalyzerPair pair = exp::analyzers_for(point.scheduler);
      Scope op(tracer, "exp.trial", k);
      exp::PointResult r;
      for (int attempt = 0; attempt < point.config.max_attempts; ++attempt) {
        ++attempts_;
        util::Rng arng = trials_[k].rng.fork_with(static_cast<std::uint64_t>(attempt));
        std::optional<model::TaskSet> ts;
        try {
          Scope s(tracer, "gen.generate", k);
          ts.emplace(gen::generate_task_set(point.config.gen, arng));
        } catch (const gen::GenerationError&) {
          ++r.generation_errors;
          continue;
        }
        {
          Scope s(tracer, "analysis.context", k);
          if (ctx.has_value())
            ctx->reset(*ts);
          else
            ctx.emplace(*ts);
        }
        exp::SetVerdict verdict;
        verdict.baseline = analyze(tracer, k, *pair.baseline, *ts, *ctx);
        if (point.config.filter_baseline && !verdict.baseline) {
          ++r.discarded;
          continue;
        }
        verdict.proposed = analyze(tracer, k, *pair.proposed, *ts, *ctx);
        r.accepted = 1;
        r.baseline_schedulable = verdict.baseline ? 1 : 0;
        r.proposed_schedulable = verdict.proposed ? 1 : 0;
        r.verdicts.push_back(verdict);
        break;
      }
      replayed_.push_back(std::move(r));
    }
    return seconds_since(t0);
  }

  LayerMetrics layer_metrics(const Tracer& tracer, const PassSample&) override {
    const auto mean_us = [&](const char* name) {
      return tracer.mean_self_us(name);
    };
    LayerMetrics m;
    m["gen.generate_us"] = {mean_us("gen.generate"), "us"};
    m["analysis.context_us"] = {mean_us("analysis.context"), "us"};
    m["analysis.partition_us"] = {mean_us("analysis.partition"), "us"};
    m["analysis.rta_us"] = {mean_us("analysis.rta"), "us"};
    m["exp.attempts"] = {static_cast<double>(attempts_), "count"};
    m["exp.accept_ratio"] = {
        static_cast<double>(trials_.size()) / static_cast<double>(attempts_),
        "ratio"};
    return m;
  }

  std::map<std::string, std::uint64_t> record_counts() override {
    std::map<std::string, std::uint64_t> c;
    for (std::size_t k = 0; k < results_.size(); ++k) {
      const std::string name = points_[trials_[k].point].name;
      c[name + ".accepted"] += results_[k].accepted;
      c[name + ".discarded"] += results_[k].discarded;
      c[name + ".proposed_schedulable"] += results_[k].proposed_schedulable;
    }
    return c;
  }

 private:
  /// The trials of pass `pass`: trial i of a point draws from
  /// Rng(seed * salt + 17).fork_with(pass).fork_with(i).
  void make_trials(int pass) {
    trials_.clear();
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const util::Rng root = util::Rng(options_.seed * points_[p].salt + 17)
                                 .fork_with(static_cast<std::uint64_t>(pass));
      for (std::size_t i = 0; i < kTrialsPerPoint; ++i)
        trials_.push_back({p, root.fork_with(i)});
    }
  }

  static bool analyze(Tracer* tracer, std::size_t op,
                      const analysis::Analyzer& analyzer,
                      const model::TaskSet& ts, analysis::RtaContext& ctx) {
    analysis::AnalyzerOptions opts;
    analysis::PartitionResult partition;
    if (analyzer.capabilities().uses_partition) {
      {
        Scope s(tracer, "analysis.partition", op);
        partition = analyzer.make_partition(ts);
      }
      if (!partition.success()) return false;
      opts.partition = &*partition.partition;
    }
    Scope s(tracer, "analysis.rta", op);
    return analyzer.analyze(ts, ctx, opts).schedulable;
  }

  WorkloadOptions options_;
  std::vector<Point> points_;
  std::vector<Trial> trials_;
  std::vector<exp::PointResult> results_, replayed_;
  std::uint64_t attempts_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload(const WorkloadOptions& options) {
  return std::make_unique<SweepWorkload>(options);
}

}  // namespace rtbench
