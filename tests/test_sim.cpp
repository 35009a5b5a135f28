// Unit tests for the discrete-event thread-pool simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>

#include "analysis/partition.h"
#include "gen/scenario_space.h"
#include "gen/taskset_generator.h"
#include "model/builder.h"
#include "sim/engine.h"
#include "sim/gantt.h"
#include "sim/trace_json.h"

namespace rtpool::sim {
namespace {

using analysis::NodeAssignment;
using analysis::TaskSetPartition;
using analysis::ThreadId;
using model::DagTask;
using model::DagTaskBuilder;
using model::NodeId;
using model::TaskSet;

/// pre(1) BF(2) {4,5,6}(BC) BJ(3) post(1): the Figure 1(a) shape.
DagTask fig1_task(const std::string& name = "fig1", util::Time period = 100.0) {
  DagTaskBuilder b(name);
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_blocking_fork_join(2.0, 3.0, {4.0, 5.0, 6.0});
  const NodeId post = b.add_node(1.0);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(period);
  return b.build();
}

/// Same DAG with non-blocking typing.
DagTask fig1_nonblocking(const std::string& name = "fig1nb",
                         util::Time period = 100.0) {
  DagTaskBuilder b(name);
  const NodeId pre = b.add_node(1.0);
  const auto fj = b.add_fork_join(2.0, 3.0, {4.0, 5.0, 6.0});
  const NodeId post = b.add_node(1.0);
  b.add_edge(pre, fj.fork);
  b.add_edge(fj.join, post);
  b.period(period);
  return b.build();
}

/// Two concurrent blocking regions (deadlocks on m = 2): Figure 1(c).
DagTask two_region_task(util::Time period = 100.0) {
  DagTaskBuilder b("replicas");
  const NodeId src = b.add_node(1.0);
  const auto r1 = b.add_blocking_fork_join(1.0, 1.0, {2.0, 2.0});
  const auto r2 = b.add_blocking_fork_join(1.0, 1.0, {2.0, 2.0});
  const NodeId snk = b.add_node(1.0);
  b.add_edge(src, r1.fork);
  b.add_edge(src, r2.fork);
  b.add_edge(r1.join, snk);
  b.add_edge(r2.join, snk);
  b.period(period);
  return b.build();
}

SimConfig global_config(util::Time horizon) {
  SimConfig cfg;
  cfg.policy = SchedulingPolicy::kGlobal;
  cfg.horizon = horizon;
  return cfg;
}

TEST(SimTest, SequentialChain) {
  DagTaskBuilder b("chain");
  const NodeId n0 = b.add_node(1.0);
  const NodeId n1 = b.add_node(2.0);
  const NodeId n2 = b.add_node(3.0);
  b.add_edge(n0, n1);
  b.add_edge(n1, n2);
  b.period(50.0);
  TaskSet ts(2);
  ts.add(b.build());

  const SimResult r = simulate(ts, global_config(50.0));
  ASSERT_FALSE(r.deadlock.has_value());
  ASSERT_EQ(r.per_task[0].jobs_completed, 1u);
  EXPECT_NEAR(r.max_response(0), 6.0, 1e-9);
  EXPECT_FALSE(r.any_deadline_miss);
  EXPECT_EQ(r.per_task[0].min_available_concurrency, 2);
}

TEST(SimTest, NonBlockingForkJoinRunsInParallel) {
  TaskSet ts(2);
  ts.add(fig1_nonblocking());
  const SimResult r = simulate(ts, global_config(100.0));
  ASSERT_EQ(r.per_task[0].jobs_completed, 1u);
  // pre@1, fork@3; children on 2 threads: {4,6} on A, {5} then idle... FIFO:
  // c4 and c5 start at 3 (two threads), c4 ends 7, c6 runs 7..13, c5 ends 8.
  // join ready at 13, ends 16; post ends 17.
  EXPECT_NEAR(r.max_response(0), 17.0, 1e-9);
  EXPECT_EQ(r.per_task[0].min_available_concurrency, 2);
}

TEST(SimTest, BlockingForkJoinLosesAThread) {
  TaskSet ts(2);
  ts.add(fig1_task());
  const SimResult r = simulate(ts, global_config(100.0));
  ASSERT_FALSE(r.deadlock.has_value());
  ASSERT_EQ(r.per_task[0].jobs_completed, 1u);
  // Children serialize on the single remaining thread: 4+5+6 after t=3,
  // join 18..21, post 21..22 (Figure 1(b)).
  EXPECT_NEAR(r.max_response(0), 22.0, 1e-9);
  // While the fork is suspended only one thread remains available.
  EXPECT_EQ(r.per_task[0].min_available_concurrency, 1);
}

TEST(SimTest, TwoConcurrentRegionsDeadlockOnTwoThreads) {
  TaskSet ts(2);
  ts.add(two_region_task());
  const SimResult r = simulate(ts, global_config(100.0));
  ASSERT_TRUE(r.deadlock.has_value());
  EXPECT_EQ(r.deadlock->task_index, 0u);
  // Both forks executed (1 each after src@1), then both threads suspended.
  EXPECT_NEAR(r.deadlock->time, 2.0, 1e-9);
  EXPECT_EQ(r.per_task[0].min_available_concurrency, 0);
  EXPECT_TRUE(r.any_deadline_miss);
}

TEST(SimTest, TwoConcurrentRegionsFineOnThreeThreads) {
  TaskSet ts(3);
  ts.add(two_region_task());
  const SimResult r = simulate(ts, global_config(100.0));
  EXPECT_FALSE(r.deadlock.has_value());
  EXPECT_EQ(r.per_task[0].jobs_completed, 1u);
  EXPECT_GE(r.per_task[0].min_available_concurrency, 1);
}

TEST(SimTest, PeriodicJobsAndDeadlineMisses) {
  // C=6 chain, T=D=8, m=1, two tasks -> the lp task misses.
  TaskSet ts(1);
  {
    DagTaskBuilder b("hp");
    b.add_node(6.0);
    b.period(8.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    b.add_node(5.0);  // U = 6/8 + 5/16 > 1: the lp task must miss
    b.period(16.0).priority(1);
    ts.add(b.build());
  }
  const SimResult r = simulate(ts, global_config(64.0));
  EXPECT_EQ(r.per_task[0].jobs_released, 8u);
  EXPECT_EQ(r.per_task[0].deadline_misses, 0u);
  EXPECT_TRUE(r.any_deadline_miss);
  EXPECT_GT(r.per_task[1].deadline_misses, 0u);
}

TEST(SimTest, PreemptionByHigherPriority) {
  // lp starts first epoch alone? No: synchronous release at 0; hp (prio 0)
  // takes the core; lp C=3 runs after hp C=2: R_lp = 5 on m=1.
  TaskSet ts(1);
  {
    DagTaskBuilder b("hp");
    b.add_node(2.0);
    b.period(10.0).priority(0);
    ts.add(b.build());
  }
  {
    DagTaskBuilder b("lp");
    b.add_node(3.0);
    b.period(20.0).priority(1);
    ts.add(b.build());
  }
  const SimResult r = simulate(ts, global_config(20.0));
  EXPECT_NEAR(r.max_response(1), 5.0, 1e-9);
  EXPECT_NEAR(r.max_response(0), 2.0, 1e-9);
}

TEST(SimTest, TraceCoversExecution) {
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg = global_config(100.0);
  cfg.collect_trace = true;
  const SimResult r = simulate(ts, cfg);
  ASSERT_FALSE(r.trace.empty());
  double busy_time = 0.0;
  for (const ExecutionInterval& iv : r.trace) {
    EXPECT_LT(iv.start, iv.end);
    EXPECT_LT(iv.core, 2u);
    busy_time += iv.end - iv.start;
  }
  EXPECT_NEAR(busy_time, ts.task(0).volume(), 1e-6);
}

TEST(GanttTest, RendersRowsPerCoreWithLegend) {
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg = global_config(100.0);
  cfg.collect_trace = true;
  const SimResult r = simulate(ts, cfg);

  GanttOptions opts;
  opts.width = 40;
  const std::string art = render_ascii_gantt(ts, r.trace, opts);
  ASSERT_FALSE(art.empty());
  EXPECT_NE(art.find("core  0 |"), std::string::npos);
  EXPECT_NE(art.find("core  1 |"), std::string::npos);
  EXPECT_NE(art.find("A=fig1"), std::string::npos);
  EXPECT_NE(art.find('A'), std::string::npos);  // some execution is drawn
  // Two core rows of exactly `width` cells between the pipes.
  const auto row_start = art.find("core  0 |") + 9;
  const auto row_end = art.find('|', row_start);
  EXPECT_EQ(row_end - row_start, 40u);
}

TEST(GanttTest, EmptyTraceAndWindowEdgeCases) {
  TaskSet ts(1);
  ts.add(fig1_task());
  EXPECT_EQ(render_ascii_gantt(ts, {}), "");

  std::vector<ExecutionInterval> trace{{0, 0, 0, 1.0, 2.0}};
  GanttOptions opts;
  opts.start = 5.0;
  opts.end = 5.0;  // empty window
  EXPECT_EQ(render_ascii_gantt(ts, trace, opts), "");

  opts.end = 10.0;  // interval entirely left of the window: all idle
  const std::string art = render_ascii_gantt(ts, trace, opts);
  const auto row_start = art.find("core  0 |") + 9;
  const auto row_end = art.find('|', row_start);
  const std::string row = art.substr(row_start, row_end - row_start);
  EXPECT_EQ(row.find('A'), std::string::npos);
  EXPECT_EQ(row, std::string(row.size(), '.'));
}

TEST(SimTest, StopOnMiss) {
  TaskSet ts(1);
  DagTaskBuilder b("t");
  b.add_node(5.0);
  b.period(4.0).deadline(4.0);
  ts.add(b.build());
  SimConfig cfg = global_config(40.0);
  cfg.stop_on_miss = true;
  const SimResult r = simulate(ts, cfg);
  EXPECT_TRUE(r.any_deadline_miss);
  // Halted after the very first completion (which missed).
  EXPECT_LE(r.jobs.size(), 3u);
}

TEST(SimTest, SporadicJitterDelaysReleases) {
  TaskSet ts(1);
  DagTaskBuilder b("t");
  b.add_node(1.0);
  b.period(10.0);
  ts.add(b.build());
  SimConfig cfg = global_config(100.0);
  cfg.release_jitter_frac = 0.5;
  cfg.seed = 99;
  const SimResult r = simulate(ts, cfg);
  // Strictly periodic would fit 10 jobs; jitter must reduce that.
  EXPECT_LT(r.per_task[0].jobs_released, 10u);
  EXPECT_GE(r.per_task[0].jobs_released, 6u);
  EXPECT_FALSE(r.any_deadline_miss);
}

TEST(SimTest, PartitionedQueueBehindSuspendedThreadDelays) {
  // Blocking region with both children on the *fork's* thread: the children
  // can never run -> deadlock (the reduced-concurrency hazard, Lemma 3).
  TaskSet ts(2);
  ts.add(fig1_task());
  const DagTask& t = ts.task(0);
  const auto& region = t.blocking_regions()[0];

  NodeAssignment bad{std::vector<ThreadId>(t.node_count(), 0)};
  SimConfig cfg;
  cfg.policy = SchedulingPolicy::kPartitioned;
  cfg.horizon = 100.0;
  cfg.partition = TaskSetPartition{{bad}};
  const SimResult r = simulate(ts, cfg);
  ASSERT_TRUE(r.deadlock.has_value());

  // Segregating the members on the other thread resolves it.
  NodeAssignment good = bad;
  region.members.for_each([&](std::size_t v) { good.thread_of[v] = 1; });
  cfg.partition = TaskSetPartition{{good}};
  const SimResult ok = simulate(ts, cfg);
  EXPECT_FALSE(ok.deadlock.has_value());
  EXPECT_EQ(ok.per_task[0].jobs_completed, 1u);
  // Children serialized on thread 1: same 22 as the global 2-thread case.
  EXPECT_NEAR(ok.max_response(0), 22.0, 1e-9);
}

TEST(SimTest, PartitionedDispatchesLowestRepresentablePriority) {
  // A pool at priority INT_MAX still gets its idle core under partitioned
  // scheduling, exactly as under global scheduling.
  TaskSet ts(1);
  DagTaskBuilder b("lowest");
  b.add_node(3.0);
  b.period(10.0);
  b.priority(std::numeric_limits<int>::max());
  ts.add(b.build());
  SimConfig cfg = global_config(10.0);
  cfg.policy = SchedulingPolicy::kPartitioned;
  cfg.partition = TaskSetPartition{{NodeAssignment{{0}}}};
  const SimResult r = simulate(ts, cfg);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_TRUE(r.jobs[0].completed);
  EXPECT_DOUBLE_EQ(r.jobs[0].response, 3.0);
  EXPECT_EQ(r, simulate(ts, global_config(10.0)));
}

TEST(SimTest, WorkStealingRescuesBadPartition) {
  // All nodes on the fork's thread deadlocks under strict per-thread FIFO
  // (see PartitionedQueueBehindSuspendedThreadDelays); with work stealing
  // the idle sibling steals the stranded children (footnote 1 behaviour).
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg;
  cfg.policy = SchedulingPolicy::kPartitioned;
  cfg.horizon = 100.0;
  cfg.partition = TaskSetPartition{
      {NodeAssignment{std::vector<ThreadId>(ts.task(0).node_count(), 0)}}};

  const SimResult strict = simulate(ts, cfg);
  ASSERT_TRUE(strict.deadlock.has_value());

  cfg.work_stealing = true;
  const SimResult stealing = simulate(ts, cfg);
  EXPECT_FALSE(stealing.deadlock.has_value());
  EXPECT_EQ(stealing.per_task[0].jobs_completed, 1u);
  // Thread 1 serializes the stolen children, like the global schedule.
  EXPECT_NEAR(stealing.max_response(0), 22.0, 1e-9);
}

TEST(SimTest, WorkStealingMatchesGlobalBehaviour) {
  // Footnote 1: per-thread queues + stealing replicate global scheduling.
  TaskSet ts(3);
  ts.add(two_region_task());

  SimConfig global_cfg = global_config(200.0);
  const SimResult global_run = simulate(ts, global_cfg);

  SimConfig stealing_cfg;
  stealing_cfg.policy = SchedulingPolicy::kPartitioned;
  stealing_cfg.horizon = 200.0;
  stealing_cfg.work_stealing = true;
  // Pathological static assignment: everything on thread 0.
  stealing_cfg.partition = TaskSetPartition{
      {NodeAssignment{std::vector<ThreadId>(ts.task(0).node_count(), 0)}}};
  const SimResult stealing_run = simulate(ts, stealing_cfg);

  ASSERT_FALSE(global_run.deadlock.has_value());
  ASSERT_FALSE(stealing_run.deadlock.has_value());
  EXPECT_EQ(stealing_run.per_task[0].jobs_completed,
            global_run.per_task[0].jobs_completed);
}

TEST(TraceJsonTest, EmitsValidChromeTrace) {
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg = global_config(100.0);
  cfg.collect_trace = true;
  const SimResult r = simulate(ts, cfg);

  std::ostringstream os;
  write_chrome_trace(os, ts, r);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("fig1/v"), std::string::npos);
  EXPECT_NE(out.find("\"cat\":\"BF\""), std::string::npos);
  EXPECT_EQ(out.find("DEADLOCK"), std::string::npos);
}

TEST(TraceJsonTest, MarksDeadlocks) {
  TaskSet ts(2);
  ts.add(two_region_task());
  SimConfig cfg = global_config(100.0);
  cfg.collect_trace = true;
  const SimResult r = simulate(ts, cfg);
  ASSERT_TRUE(r.deadlock.has_value());

  std::ostringstream os;
  write_chrome_trace(os, ts, r);
  EXPECT_NE(os.str().find("DEADLOCK"), std::string::npos);
}

TEST(SimTest, ConfigValidation) {
  TaskSet ts(2);
  ts.add(fig1_task());
  SimConfig cfg;
  cfg.horizon = 0.0;
  EXPECT_THROW(simulate(ts, cfg), std::invalid_argument);

  cfg.horizon = 10.0;
  cfg.policy = SchedulingPolicy::kPartitioned;
  EXPECT_THROW(simulate(ts, cfg), std::invalid_argument);  // no partition

  cfg.partition = TaskSetPartition{};  // wrong size
  EXPECT_THROW(simulate(ts, cfg), std::invalid_argument);

  cfg.partition = TaskSetPartition{{NodeAssignment{
      std::vector<ThreadId>(ts.task(0).node_count(), 5)}}};  // bad thread id
  EXPECT_THROW(simulate(ts, cfg), std::invalid_argument);
}

TEST(SimTest, RepeatedRunsAreBitIdentical) {
  // The simulator is a pure function of (task set, config): every field of
  // SimResult — job records, per-task stats, the full trace — must be
  // bit-identical across repeated runs, under both policies and across
  // pool sizes.
  for (const std::size_t m : {2u, 3u, 5u}) {
    TaskSet ts(m);
    ts.add(fig1_task("a", 40.0));
    ts.add(fig1_nonblocking("b", 60.0));
    SimConfig cfg = global_config(120.0);
    cfg.collect_trace = true;
    EXPECT_EQ(simulate(ts, cfg), simulate(ts, cfg)) << "global m=" << m;

    TaskSetPartition partition;
    for (std::size_t t = 0; t < ts.size(); ++t)
      partition.per_task.push_back(NodeAssignment{std::vector<ThreadId>(
          ts.task(t).node_count(), static_cast<ThreadId>(t % m))});
    cfg.policy = SchedulingPolicy::kPartitioned;
    cfg.partition = partition;
    EXPECT_EQ(simulate(ts, cfg), simulate(ts, cfg)) << "partitioned m=" << m;
  }
}

TEST(SimTest, JitterIsDeterministicPerSeed) {
  TaskSet ts(2);
  ts.add(fig1_task("a", 25.0));
  SimConfig cfg = global_config(200.0);
  cfg.release_jitter_frac = 0.2;
  cfg.seed = 7;
  EXPECT_EQ(simulate(ts, cfg), simulate(ts, cfg));
  SimConfig other = cfg;
  other.seed = 8;
  EXPECT_NE(simulate(ts, cfg), simulate(ts, other));
}

TEST(OracleVerdictTest, ClassifiesOutcomes) {
  // Clean horizon.
  TaskSet easy(2);
  easy.add(fig1_task("easy", 100.0));
  OracleOptions options;
  const SimVerdict ok = oracle_verdict(easy, options);
  EXPECT_TRUE(ok.safe());
  EXPECT_EQ(ok.outcome, SimOutcome::kOk);
  EXPECT_DOUBLE_EQ(ok.horizon, 400.0);  // 4 windows x max period
  ASSERT_NE(ok.result, nullptr);
  EXPECT_GT(ok.result->per_task[0].jobs_completed, 0u);

  // Deadline miss: fig1 needs 22 time units sequentialized on m=2.
  TaskSet miss(2);
  miss.add(fig1_task("tight", 20.0));
  const SimVerdict missed = oracle_verdict(miss, options);
  EXPECT_EQ(missed.outcome, SimOutcome::kDeadlineMiss);
  EXPECT_EQ(missed.first_violation_task, 0u);
  EXPECT_NE(missed.description.find("tight"), std::string::npos);

  // Deadlock outranks the misses it causes.
  TaskSet dead(2);
  dead.add(two_region_task(100.0));
  const SimVerdict stalled = oracle_verdict(dead, options);
  EXPECT_EQ(stalled.outcome, SimOutcome::kDeadlock);
  EXPECT_FALSE(stalled.safe());
}

TEST(OracleVerdictTest, OutcomeNamesRoundTrip) {
  for (const SimOutcome outcome :
       {SimOutcome::kOk, SimOutcome::kDeadlineMiss, SimOutcome::kDeadlock})
    EXPECT_EQ(parse_sim_outcome(to_string(outcome)), outcome);
  EXPECT_THROW(parse_sim_outcome("livelock"), std::invalid_argument);
}

/// The fixed fig1-on-two-cores trace both golden renders below lock in.
SimResult golden_result(TaskSet& ts) {
  ts.add(fig1_task("fig1", 100.0));
  SimConfig cfg = global_config(30.0);
  cfg.collect_trace = true;
  return simulate(ts, cfg);
}

TEST(GanttTest, GoldenRender) {
  TaskSet ts(2);
  const SimResult r = golden_result(ts);
  GanttOptions options;
  options.width = 40;
  // The blocking fork suspends one worker, so the whole 22-unit job runs
  // on core 0 while core 1 idles — the render is locked byte-for-byte.
  EXPECT_EQ(render_ascii_gantt(ts, r.trace, options),
            "        t=0                                   22\n"
            "core  0 |AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA|\n"
            "core  1 |........................................|\n"
            "legend: A=fig1\n");
}

TEST(TraceJsonTest, GoldenRender) {
  TaskSet ts(2);
  const SimResult r = golden_result(ts);
  std::ostringstream os;
  write_chrome_trace(os, ts, r);
  EXPECT_EQ(
      os.str(),
      R"({"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"core 0"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"core 1"}},)"
      R"({"name":"fig1/v0","cat":"NB","ph":"X","pid":1,"tid":0,"ts":0,"dur":1,"args":{"task":"fig1","node":0,"type":"NB"}},)"
      R"({"name":"fig1/v1","cat":"BF","ph":"X","pid":1,"tid":0,"ts":1,"dur":2,"args":{"task":"fig1","node":1,"type":"BF"}},)"
      R"({"name":"fig1/v3","cat":"BC","ph":"X","pid":1,"tid":0,"ts":3,"dur":4,"args":{"task":"fig1","node":3,"type":"BC"}},)"
      R"({"name":"fig1/v4","cat":"BC","ph":"X","pid":1,"tid":0,"ts":7,"dur":5,"args":{"task":"fig1","node":4,"type":"BC"}},)"
      R"({"name":"fig1/v5","cat":"BC","ph":"X","pid":1,"tid":0,"ts":12,"dur":6,"args":{"task":"fig1","node":5,"type":"BC"}},)"
      R"({"name":"fig1/v2","cat":"BJ","ph":"X","pid":1,"tid":0,"ts":18,"dur":3,"args":{"task":"fig1","node":2,"type":"BJ"}},)"
      R"({"name":"fig1/v6","cat":"NB","ph":"X","pid":1,"tid":0,"ts":21,"dur":1,"args":{"task":"fig1","node":6,"type":"NB"}}],)"
      R"("displayTimeUnit":"ms"})");
}

TEST(SimTest, BacklogPreservesReleaseTimes) {
  // One task, C=7, T=5: every job overruns; the backlog grows and response
  // times accumulate: job k completes at 7(k+1), released at 5k.
  TaskSet ts(1);
  DagTaskBuilder b("t");
  b.add_node(7.0);
  b.period(5.0);
  ts.add(b.build());
  const SimResult r = simulate(ts, global_config(20.0));
  ASSERT_GE(r.jobs.size(), 2u);
  EXPECT_NEAR(r.jobs[0].response, 7.0, 1e-9);
  EXPECT_NEAR(r.jobs[1].response, 9.0, 1e-9);  // released 5, done 14
  EXPECT_TRUE(r.jobs[1].deadline_miss);
}

/// FNV-1a over every field of a SimResult; doubles enter by bit pattern,
/// integers byte by byte from the low end (independent of host endianness).
class ResultDigest {
 public:
  void u64(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) u64(static_cast<unsigned char>(c));
  }
  void result(const SimResult& r) {
    u64(r.jobs.size());
    for (const JobRecord& j : r.jobs) {
      u64(j.task_index);
      u64(j.job_number);
      f64(j.release);
      f64(j.completion);
      f64(j.response);
      u64(j.completed);
      u64(j.deadline_miss);
    }
    u64(r.per_task.size());
    for (const TaskStats& s : r.per_task) {
      u64(s.jobs_released);
      u64(s.jobs_completed);
      u64(s.deadline_misses);
      f64(s.max_response);
      u64(static_cast<std::uint64_t>(s.min_available_concurrency));
    }
    u64(r.deadlock.has_value());
    if (r.deadlock.has_value()) {
      u64(r.deadlock->task_index);
      f64(r.deadlock->time);
      str(r.deadlock->description);
    }
    u64(r.trace.size());
    for (const ExecutionInterval& e : r.trace) {
      u64(e.core);
      u64(e.task_index);
      u64(e.node);
      f64(e.start);
      f64(e.end);
    }
    u64(r.any_deadline_miss);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST(SimGoldenTest, CorpusDigestsBitIdentical) {
  // Pins the simulator's complete output over the first 40 seeded
  // corpus_default() sets at m = 4 with at most 30000 node jobs in a
  // two-window horizon (the cap keeps the test fast), one digest per
  // configuration arm. The digests were recorded from the engine before
  // its per-instant rework (cached priority order, busy counters, queue
  // rings, single-pass global pull); any change to the dispatch order, the
  // core placement, the time arithmetic or the deadlock witness text
  // changes a digest.
  const gen::ScenarioSpace space = gen::ScenarioSpace::corpus_default();
  constexpr std::size_t kCores = 4;
  constexpr double kWindows = 2.0;
  constexpr double kMaxNodeJobs = 30000.0;

  enum Arm { kGlobal, kGlobalStop, kAlg1, kWorstFitSteal, kJitter, kTrace, kArms };
  const char* names[kArms] = {"global", "global stop_on_miss", "algorithm1",
                              "worst-fit + stealing", "jitter", "trace"};
  ResultDigest digests[kArms];
  std::size_t runs[kArms] = {};
  std::size_t stalls[kArms] = {};  // Runs that detected a deadlock.
  std::size_t missed[kArms] = {};  // Runs with a deadline miss.

  std::size_t sets = 0;
  for (std::uint64_t seed = 0; sets < 40; ++seed) {
    util::Rng rng(seed);
    std::optional<TaskSet> ts;
    try {
      ts.emplace(space.pick(seed).make(kCores, rng));
    } catch (const gen::GenerationError&) {
      continue;
    }
    double max_period = 0.0;
    for (const DagTask& task : ts->tasks())
      max_period = std::max(max_period, task.period());
    double node_jobs = 0.0;
    for (const DagTask& task : ts->tasks())
      node_jobs += std::ceil(kWindows * max_period / task.period()) *
                   static_cast<double>(task.node_count());
    if (node_jobs > kMaxNodeJobs) continue;
    ++sets;
    const SimConfig base = global_config(kWindows * max_period);
    const auto record = [&](Arm arm, const SimConfig& cfg) {
      const SimResult r = simulate(*ts, cfg);
      digests[arm].u64(seed);
      digests[arm].result(r);
      ++runs[arm];
      stalls[arm] += r.deadlock.has_value();
      missed[arm] += r.any_deadline_miss;
    };

    record(kGlobal, base);

    SimConfig stop = base;
    stop.stop_on_miss = true;
    record(kGlobalStop, stop);

    const analysis::PartitionResult alg1 = analysis::partition_algorithm1(*ts);
    SimConfig part = base;
    part.policy = SchedulingPolicy::kPartitioned;
    if (alg1.success()) {
      part.partition = alg1.partition;
      record(kAlg1, part);
    }

    const analysis::PartitionResult wf = analysis::partition_worst_fit(*ts);
    if (wf.success()) {
      SimConfig steal = part;
      steal.partition = wf.partition;
      steal.work_stealing = true;
      record(kWorstFitSteal, steal);
    }

    SimConfig jitter = stop;
    jitter.release_jitter_frac = 0.3;
    jitter.seed = seed + 1;
    record(kJitter, jitter);

    SimConfig trace = base;
    trace.collect_trace = true;
    record(kTrace, trace);
    if (alg1.success()) {
      part.collect_trace = true;
      record(kTrace, part);
    }
  }

  const std::uint64_t expected_digests[kArms] = {
      0xd1a09cf9a26c61d0ull, 0xda1709b69ffbbcd0ull, 0xa30ce364927bd06cull,
      0xe11f4f7b2a7ed3c7ull, 0xa0966c0858d4e2cdull, 0x24eec933e62a9676ull};
  const std::size_t expected_runs[kArms] = {40, 40, 29, 40, 40, 69};
  const std::size_t expected_stalls[kArms] = {9, 9, 0, 9, 9, 9};
  const std::size_t expected_missed[kArms] = {14, 14, 8, 22, 14, 22};
  for (int arm = 0; arm < kArms; ++arm) {
    EXPECT_EQ(runs[arm], expected_runs[arm]) << names[arm];
    EXPECT_EQ(stalls[arm], expected_stalls[arm]) << names[arm];
    EXPECT_EQ(missed[arm], expected_missed[arm]) << names[arm];
    EXPECT_EQ(digests[arm].value(), expected_digests[arm])
        << names[arm] << ": 0x" << std::hex << digests[arm].value();
  }
}

}  // namespace
}  // namespace rtpool::sim
