// Workload `corpus`: corpus::CorpusRunner at the CI parameters (m = 4,
// windows = 3, default analyzers, default scenario mix), one thread. An op
// is one corpus set: a CorpusRunner run over the one-seed range [s, s+1).
//
// Input list. Simulation is 95 % of a set's time and the time per set is
// heavy-tailed and hard to predict from the set's shape (node-jobs in the
// horizon miss it by a factor of e^0.4 even for sets that stay safe), so a
// plain seed range would make every figure depend on the range drawn. The
// pass is therefore stratified by measured time: perfbench/corpus_costs.txt
// holds the CorpusRunner time of every set of a fixed universe of corpus
// seeds (kUniversePerScenario a scenario, measured once by `rtbench
// --calibrate 1`; sets too large to time are left out of the universe).
// Pass p draws a pool of kPoolPerScenario universe seeds per scenario from
// (--seed, p) and keeps, for every scenario, the pool set nearest (in log
// scale) to each of kLevels quantiles of that scenario's universe times.
// Every pass thus has the same time profile: 9 scenarios x 8 quantiles = 72
// sets, short enough for about fifteen passes a run, and each pass is a
// fresh draw, so the median over passes averages over draws as well as over
// the host. The table is data, not a measurement of the build under test,
// so the same seed selects the same sets on every commit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/rta_context.h"
#include "common.h"
#include "corpus/corpus.h"
#include "gen/scenario_space.h"
#include "gen/taskset_generator.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace rtbench {
namespace {

using namespace rtpool;

constexpr std::size_t kCores = 4;
constexpr double kWindows = 3.0;
constexpr std::uint64_t kRootSeed = 1;  // CorpusConfig default root
constexpr std::size_t kUniversePerScenario = 400;
constexpr std::size_t kPoolPerScenario = 48;
/// Quantile levels of the universe times: the 5th to 92.5th percentile in
/// steps of 12.5. Sets above the top level are never targeted.
constexpr std::size_t kLevels = 8;
/// Sets with more node-jobs than this in the oracle horizon (about 1 % of
/// the mix, all above the top level) simulate for seconds to minutes and
/// are not timed into the universe.
constexpr double kMaxNodeJobs = 600000;

double node_jobs(const model::TaskSet& ts) {
  double tmax = 0.0;
  for (const model::DagTask& t : ts.tasks()) tmax = std::max(tmax, t.period());
  double total = 0.0;
  for (const model::DagTask& t : ts.tasks())
    total += std::ceil(kWindows * tmax / t.period()) *
             static_cast<double>(t.node_count());
  return total;
}

corpus::CorpusResult run_one(const gen::ScenarioSpace& space,
                             std::uint64_t seed) {
  corpus::CorpusConfig config;
  config.seed_begin = seed;
  config.seed_end = seed + 1;
  config.shards = 1;
  config.root_seed = kRootSeed;
  config.cores = kCores;
  config.windows = kWindows;
  config.space = space;
  corpus::CorpusRunner runner(std::move(config), 1);
  return runner.run();
}

class CorpusWorkload final : public Workload {
 public:
  explicit CorpusWorkload(const WorkloadOptions& options) : options_(options) {}

  void setup() override {
    space_ = gen::ScenarioSpace::corpus_default();
    load_universe();
    select_seeds(0);
    // Untimed warm-up: one median-time set of every scenario.
    for (const std::uint64_t seed : warmup_) (void)run_one(space_, seed);
  }

  void teardown() override {}
  void prepare_pass(int pass) override { select_seeds(pass); }

  PassSample run_pass(int) override {
    PassSample s;
    results_.clear();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    for (const std::uint64_t seed : seeds_) {
      const Clock::time_point op0 = Clock::now();
      results_.push_back(run_one(space_, seed));
      s.op_ms.push_back(seconds_since(op0) * 1e3);
      if (results_.back().sets != 1) ++s.failed;
    }
    s.wall_s = seconds_since(t0);
    s.cpu_s = process_cpu_seconds() - cpu0;
    return s;
  }

  void check_pass(int) override {
    for (std::size_t k = 0; k < results_.size(); ++k) {
      const corpus::CorpusResult& r = results_[k];
      const std::string at = "corpus seed " + std::to_string(seeds_[k]);
      require(r.safety_violations == 0, at + ": safety violation");
      // A sound bound is never below the simulated response; equality is
      // common (tight bounds), so allow fp rounding as test_corpus_soak does.
      for (const corpus::AnalyzerStats& st : r.per_analyzer)
        if (st.mode == corpus::OracleMode::kAssertSafety && st.gap.count() > 0)
          require(st.gap.min() >= 1.0 - 1e-9,
                  at + ": " + st.analyzer + " gap.min " +
                      std::to_string(st.gap.min()) + " < 1 (bound below observed)");
    }
  }

  void check_run() override {
    replay(nullptr);
    if (options_.corrupt != 0 && !replayed_.empty())
      ++replayed_.front()[0].sim_checked;
    require(replayed_.size() == results_.size(),
            "corpus: replay covered a different number of sets");
    for (std::size_t k = 0; k < results_.size(); ++k)
      require(replayed_[k] == results_[k].per_analyzer,
              "corpus seed " + std::to_string(seeds_[k]) +
                  ": replayed per-analyzer counts differ from CorpusRunner's");
  }

  /// The runner's per-set work, call by call: ScenarioSpace::pick().make,
  /// then per analyzer make_partition / analyze / sim::oracle_verdict.
  double replay(Tracer* tracer) override {
    const std::vector<corpus::AnalyzerSpec> specs =
        corpus::default_analyzer_specs();
    std::vector<const analysis::Analyzer*> analyzers;
    for (const corpus::AnalyzerSpec& spec : specs)
      analyzers.push_back(&analysis::get_analyzer(spec.name));
    const util::Rng root(kRootSeed);
    replayed_.clear();
    jobs_ = 0;
    std::optional<analysis::RtaContext> ctx;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < seeds_.size(); ++k) {
      const std::uint64_t seed = seeds_[k];
      Scope op(tracer, "corpus.set", k);
      util::Rng rng = root.fork_with(seed);
      std::optional<model::TaskSet> ts;
      {
        Scope s(tracer, "gen.scenario_make", k);
        ts.emplace(space_.pick(seed).make(kCores, rng));
      }
      {
        Scope s(tracer, "analysis.context", k);
        if (ctx.has_value())
          ctx->reset(*ts);
        else
          ctx.emplace(*ts);
      }
      std::optional<sim::SimVerdict> global;
      std::vector<corpus::AnalyzerStats> per(specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        corpus::AnalyzerStats& st = per[i];
        st.analyzer = specs[i].name;
        st.mode = specs[i].mode;
        st.sets = 1;
        analysis::PartitionResult partition;
        analysis::AnalyzerOptions opts;
        if (analyzers[i]->capabilities().uses_partition) {
          {
            Scope s(tracer, "analysis.partition", k);
            partition = analyzers[i]->make_partition(*ts);
          }
          if (!partition.success()) {
            st.partition_failures = 1;
            continue;
          }
          opts.partition = &*partition.partition;
        }
        analysis::Report report;
        {
          Scope s(tracer, "analysis.analyze", k);
          report = analyzers[i]->analyze(*ts, *ctx, opts);
        }
        if (report.schedulable) st.analysis_schedulable = 1;
        if (specs[i].mode == corpus::OracleMode::kNoSim) continue;
        sim::SimVerdict own;
        const sim::SimVerdict* verdict = nullptr;
        if (specs[i].policy == sim::SchedulingPolicy::kGlobal) {
          if (!global.has_value()) {
            Scope s(tracer, "sim.oracle", k);
            sim::OracleOptions o;
            o.windows = kWindows;
            global = sim::oracle_verdict(*ts, o);
            jobs_ += global->result->jobs.size();
          }
          verdict = &*global;
        } else {
          Scope s(tracer, "sim.oracle", k);
          sim::OracleOptions o;
          o.policy = sim::SchedulingPolicy::kPartitioned;
          o.partition = partition.partition;
          o.windows = kWindows;
          own = sim::oracle_verdict(*ts, o);
          jobs_ += own.result->jobs.size();
          verdict = &own;
        }
        st.sim_checked = 1;
        switch (verdict->outcome) {
          case sim::SimOutcome::kOk: st.sim_safe = 1; break;
          case sim::SimOutcome::kDeadlineMiss: st.sim_deadline_miss = 1; break;
          case sim::SimOutcome::kDeadlock: st.sim_deadlock = 1; break;
        }
        if (report.schedulable && !verdict->safe()) {
          st.optimistic = 1;
          if (st.mode == corpus::OracleMode::kAssertSafety)
            st.safety_violations = 1;
        }
        if (!report.schedulable && verdict->safe()) st.pessimistic = 1;
        if (report.schedulable && verdict->safe() &&
            report.limiting_task.has_value()) {
          const std::size_t limiting = *report.limiting_task;
          const double bound = report.per_task[limiting].response_time;
          const double observed =
              verdict->result->per_task[limiting].max_response;
          if (std::isfinite(bound) && observed > 0.0)
            st.gap.add(bound / observed);
        }
      }
      replayed_.push_back(std::move(per));
    }
    return seconds_since(t0);
  }

  LayerMetrics layer_metrics(const Tracer& tracer,
                             const PassSample& pass) override {
    const auto self = tracer.self_times();
    const auto it = self.find("sim.oracle");
    const double oracle_us = it == self.end() ? 0.0 : it->second.total_us;
    // Runner overhead per set: the runner's op time minus the same calls
    // made directly (on-path spans of the replay), median over sets.
    std::vector<double> overhead_ms;
    for (const auto& [op, us] : tracer.on_path_us_per_op())
      overhead_ms.push_back(pass.op_ms.at(op) - us * 1e-3);
    LayerMetrics m;
    m["sim.oracle_ms"] = {
        oracle_us * 1e-3 / static_cast<double>(seeds_.size()), "ms"};
    m["sim.jobs"] = {static_cast<double>(jobs_), "count"};
    m["sim.us_per_job"] = {oracle_us / static_cast<double>(jobs_), "us"};
    m["corpus.unaccounted_ms"] = {median(overhead_ms), "ms"};
    return m;
  }

  std::map<std::string, std::uint64_t> record_counts() override {
    std::map<std::string, std::uint64_t> c;
    for (const corpus::CorpusResult& r : results_) {
      c["sets"] += r.sets;
      c["safety_violations"] += r.safety_violations;
      for (const corpus::AnalyzerStats& st : r.per_analyzer) {
        c[st.analyzer + ".accepted"] += st.analysis_schedulable;
        c[st.analyzer + ".optimistic"] += st.optimistic;
      }
    }
    return c;
  }

 private:
  /// Read the cost table into universe_ (per scenario: (ms, seed) pairs)
  /// and pick the warm-up sets.
  void load_universe() {
    const std::string path = options_.data_dir + "/corpus_costs.txt";
    std::ifstream in(path);
    require(in.good(), "corpus: cannot read " + path);
    universe_.assign(space_.size(), {});
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::uint64_t seed = 0;
      double ms = 0.0;
      fields >> seed >> ms;
      require(!fields.fail(), "corpus: malformed line in " + path + ": " + line);
      universe_.at(space_.pick_index(seed)).emplace_back(ms, seed);
    }
    sorted_times_.clear();
    warmup_.clear();
    for (const auto& sets : universe_) {
      require(sets.size() >= kPoolPerScenario, "corpus: universe too small");
      std::vector<double> times;
      for (const auto& entry : sets) times.push_back(entry.first);
      std::sort(times.begin(), times.end());
      // Warm up on the scenario's median-time universe set: the same work
      // for every --seed, so setup_s does not depend on the seed.
      const double mid = times[times.size() / 2];
      warmup_.push_back(std::find_if(sets.begin(), sets.end(), [&](const auto& e) {
                          return e.first == mid;
                        })->second);
      sorted_times_.push_back(std::move(times));
    }
  }

  /// Pick the seeds of pass `pass` (see file comment). Deterministic in
  /// (--seed, pass).
  void select_seeds(int pass) {
    seeds_.clear();
    util::Rng rng =
        util::Rng(options_.seed).fork_with(static_cast<std::uint64_t>(pass));
    for (std::size_t sc = 0; sc < universe_.size(); ++sc) {
      std::vector<std::pair<double, std::uint64_t>> sets = universe_[sc];
      const std::vector<double>& times = sorted_times_[sc];
      rng.shuffle(sets);
      std::vector<std::pair<double, std::uint64_t>> pool(
          sets.begin(), sets.begin() + kPoolPerScenario);
      for (std::size_t level = 0; level < kLevels; ++level) {
        const double q = 0.05 + 0.125 * static_cast<double>(level);
        const double target =
            times[static_cast<std::size_t>(q * static_cast<double>(times.size()))];
        const auto best = std::min_element(
            pool.begin(), pool.end(), [&](const auto& a, const auto& b) {
              const double da = std::abs(std::log(a.first / target));
              const double db = std::abs(std::log(b.first / target));
              return da < db || (da == db && a.second < b.second);
            });
        seeds_.push_back(best->second);
        pool.erase(best);
      }
    }
    std::sort(seeds_.begin(), seeds_.end());
  }

  WorkloadOptions options_;
  gen::ScenarioSpace space_;
  std::vector<std::vector<std::pair<double, std::uint64_t>>> universe_;
  std::vector<std::vector<double>> sorted_times_;
  std::vector<std::uint64_t> seeds_, warmup_;
  std::vector<corpus::CorpusResult> results_;
  std::vector<std::vector<corpus::AnalyzerStats>> replayed_;
  std::uint64_t jobs_ = 0;
};

}  // namespace

void print_corpus_costs() {
  const gen::ScenarioSpace space = gen::ScenarioSpace::corpus_default();
  const util::Rng root(kRootSeed);
  std::printf("# CorpusRunner ms per corpus seed (m=%zu, windows=%g, root seed "
              "%llu), best of two runs; rtbench --calibrate 1\n",
              kCores, kWindows, static_cast<unsigned long long>(kRootSeed));
  for (std::uint64_t seed = 0; seed < kUniversePerScenario * space.size();
       ++seed) {
    util::Rng rng = root.fork_with(seed);
    try {
      if (node_jobs(space.pick(seed).make(kCores, rng)) > kMaxNodeJobs) continue;
    } catch (const gen::GenerationError&) {
      continue;
    }
    double best = 0.0;
    for (int run = 0; run < 2; ++run) {
      const Clock::time_point t0 = Clock::now();
      (void)run_one(space, seed);
      const double ms = seconds_since(t0) * 1e3;
      best = run == 0 ? ms : std::min(best, ms);
    }
    std::printf("%llu %.4f\n", static_cast<unsigned long long>(seed), best);
  }
}

std::unique_ptr<Workload> make_corpus_workload(const WorkloadOptions& options) {
  return std::make_unique<CorpusWorkload>(options);
}

}  // namespace rtbench
