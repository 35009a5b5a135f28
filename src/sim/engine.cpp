#include "sim/engine.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace rtpool::sim {

namespace {

using model::DagTask;
using model::NodeId;
using model::NodeType;
using util::Time;

constexpr double kEps = 1e-9;

/// Completion tolerance at simulation time `now`: must dominate the
/// floating-point ULP of the time axis, which grows with |now| — an
/// absolute epsilon alone livelocks once ulp(now) exceeds it (a residual
/// `remaining` smaller than half an ULP can neither complete nor advance
/// the clock, because now + remaining rounds back to now).
inline double completion_eps(double now) { return kEps * std::max(1.0, now); }

/// What a pool thread is doing.
enum class ThreadMode {
  kIdle,       ///< No current node; may pull from a queue.
  kBusy,       ///< Serving a node (running or preempted).
  kSuspended,  ///< Blocked on a barrier (BF executed, region incomplete).
};

struct ThreadState {
  ThreadMode mode = ThreadMode::kIdle;
  NodeId node = 0;        ///< Valid when kBusy.
  Time remaining = 0.0;   ///< Remaining execution of `node` when kBusy.
};

/// One FIFO queue: the window [head, tail) of its own node-count-sized
/// segment of the pool's queue buffer, reset to empty at every job start.
/// A node is enqueued at most once per job, so the segment never overflows;
/// a back-steal moves `tail` down, which only frees room.
struct QueueRing {
  std::size_t base = 0;
  std::size_t head = 0;
  std::size_t tail = 0;
  bool empty() const { return head == tail; }
};

/// Runtime state of one task (its pool and current job).
struct PoolState {
  std::vector<ThreadState> threads;
  std::size_t busy = 0;  ///< Threads in kBusy (running or preempted).
  /// One queue for the pool under global scheduling, one per thread under
  /// partitioned scheduling; the rings index into `queued`.
  std::vector<QueueRing> queues;
  std::vector<NodeId> queued;

  void push(std::size_t q, NodeId v) { queued[queues[q].tail++] = v; }
  NodeId pop_front(std::size_t q) { return queued[queues[q].head++]; }
  NodeId pop_back(std::size_t q) { return queued[--queues[q].tail]; }

  bool job_active = false;
  std::uint64_t job_number = 0;
  Time job_release = 0.0;
  std::vector<bool> done;            ///< Per node, current job.
  std::vector<std::size_t> preds_left;
  std::size_t nodes_left = 0;
  std::vector<std::size_t> region_thread;  ///< Suspended thread per region.

  std::deque<Time> backlog;          ///< Release times waiting for the pool.
  Time next_release = 0.0;
  bool releases_exhausted = false;

  std::size_t suspended_count = 0;
  long min_available = 0;
  bool deadlocked = false;
};

/// Identity of a running thread (for core assignment / traces).
struct RunSlot {
  std::size_t task = 0;
  std::size_t thread = 0;
  bool operator==(const RunSlot&) const = default;
};

class Engine {
 public:
  Engine(const model::TaskSet& ts, const SimConfig& config)
      : ts_(ts), config_(config), m_(ts.core_count()), rng_(config.seed) {
    if (!(config_.horizon > 0.0))
      throw std::invalid_argument("simulate: horizon must be > 0");
    if (config_.policy == SchedulingPolicy::kPartitioned) {
      if (!config_.partition.has_value())
        throw std::invalid_argument("simulate: partitioned policy needs a partition");
      if (config_.partition->per_task.size() != ts_.size())
        throw std::invalid_argument("simulate: partition size mismatch");
      for (std::size_t i = 0; i < ts_.size(); ++i) {
        if (config_.partition->per_task[i].thread_of.size() != ts_.task(i).node_count())
          throw std::invalid_argument("simulate: assignment size mismatch for task " +
                                      std::to_string(i));
        for (analysis::ThreadId th : config_.partition->per_task[i].thread_of)
          if (th >= m_)
            throw std::invalid_argument("simulate: thread id out of range");
      }
    }
    if (config_.release_jitter_frac < 0.0)
      throw std::invalid_argument("simulate: negative release jitter");

    order_ = ts_.priority_order();
    pools_.resize(ts_.size());
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      PoolState& p = pools_[i];
      p.threads.resize(m_);
      p.queues.resize(partitioned() ? m_ : 1);
      p.queued.resize(p.queues.size() * ts_.task(i).node_count());
      for (std::size_t q = 0; q < p.queues.size(); ++q)
        p.queues[q].base = q * ts_.task(i).node_count();
      p.region_thread.assign(ts_.task(i).blocking_regions().size(), m_);
      p.min_available = static_cast<long>(m_);
      p.next_release = 0.0;
    }
    running_.assign(m_, std::nullopt);
    next_.assign(m_, std::nullopt);
    open_interval_.assign(m_, std::nullopt);
    result_.per_task.resize(ts_.size());
  }

  SimResult run() {
    Time t = 0.0;
    process_instant(t);
    while (!halted_) {
      Time next = next_event_time(t);
      if (!std::isfinite(next) || next > config_.horizon + kEps) break;
      // Defensive forced progress: with the relative completion epsilon the
      // next event is always strictly later, but never trust FP blindly.
      if (!(next > t)) next = t + completion_eps(t);
      advance(next - t);
      t = next;
      process_instant(t);
    }
    finalize(std::min(config_.horizon, std::max(t, 0.0)));
    return std::move(result_);
  }

 private:
  // ---- queue helpers -------------------------------------------------

  bool partitioned() const { return config_.policy == SchedulingPolicy::kPartitioned; }

  void enqueue(std::size_t task, NodeId v) {
    pools_[task].push(
        partitioned() ? config_.partition->per_task[task].thread_of[v] : 0, v);
  }

  /// Put `thread` of pool `task` to work on node `v` (every transition into
  /// kBusy goes through here, so `busy` stays exact).
  void start_node(std::size_t task, std::size_t thread, NodeId v) {
    PoolState& p = pools_[task];
    ThreadState& th = p.threads[thread];
    th.mode = ThreadMode::kBusy;
    th.node = v;
    th.remaining = ts_.task(task).wcet(v);
    ++p.busy;
  }

  // ---- job lifecycle -------------------------------------------------

  void start_job(std::size_t task, Time release) {
    const DagTask& dag_task = ts_.task(task);
    PoolState& p = pools_[task];
    p.job_active = true;
    dispatch_stale_ = true;
    ++p.job_number;
    p.job_release = release;
    p.done.assign(dag_task.node_count(), false);
    p.preds_left.resize(dag_task.node_count());
    for (NodeId v = 0; v < dag_task.node_count(); ++v)
      p.preds_left[v] = dag_task.dag().in_degree(v);
    p.nodes_left = dag_task.node_count();
    std::fill(p.region_thread.begin(), p.region_thread.end(), m_);
    for (QueueRing& q : p.queues) q.head = q.tail = q.base;
    enqueue(task, dag_task.source());
  }

  /// The record of `task`'s current job, ending at `end` (miss flag unset).
  JobRecord job_record(std::size_t task, Time end, bool completed) const {
    const PoolState& p = pools_[task];
    return {task, p.job_number, p.job_release, end, end - p.job_release, completed, false};
  }

  void complete_job(std::size_t task, Time now) {
    PoolState& p = pools_[task];
    JobRecord rec = job_record(task, now, /*completed=*/true);
    rec.deadline_miss = rec.response > ts_.task(task).deadline() + kEps;
    result_.jobs.push_back(rec);

    TaskStats& stats = result_.per_task[task];
    ++stats.jobs_completed;
    stats.max_response = std::max(stats.max_response, rec.response);
    if (rec.deadline_miss) {
      ++stats.deadline_misses;
      result_.any_deadline_miss = true;
      if (config_.stop_on_miss) halted_ = true;
    }

    p.job_active = false;
    if (!p.backlog.empty()) {
      const Time release = p.backlog.front();
      p.backlog.pop_front();
      start_job(task, release);
    }
  }

  // ---- node completion ------------------------------------------------

  void complete_node(std::size_t task, std::size_t thread, Time now) {
    PoolState& p = pools_[task];
    const DagTask& dag_task = ts_.task(task);
    ThreadState& th = p.threads[thread];
    const NodeId v = th.node;

    th.mode = ThreadMode::kIdle;
    --p.busy;
    dispatch_stale_ = true;
    p.done[v] = true;
    --p.nodes_left;

    // Release successors (Listing 1: the fork spawns before the wait).
    for (NodeId w : dag_task.dag().successors(v)) {
      if (--p.preds_left[w] != 0) continue;
      if (dag_task.type(w) == NodeType::BJ) {
        resume_join(task, w);
      } else {
        enqueue(task, w);
      }
    }

    // A blocking fork now suspends its serving thread on the barrier —
    // unless the barrier is already open (all successors were released and
    // the region completed through zero-length children; with positive
    // WCETs this cannot happen, but the model allows zero-WCET nodes).
    if (dag_task.type(v) == NodeType::BF) {
      const std::size_t region = *dag_task.region_of(v);
      const NodeId join = dag_task.join_of(v);
      if (p.preds_left[join] == 0 && !p.done[join]) {
        // Barrier already open: run the join directly on this thread.
        start_node(task, thread, join);
      } else if (!p.done[join]) {
        th.mode = ThreadMode::kSuspended;
        p.region_thread[region] = thread;
        ++p.suspended_count;
        p.min_available =
            std::min(p.min_available, static_cast<long>(m_ - p.suspended_count));
      }
    }

    if (p.nodes_left == 0) complete_job(task, now);
  }

  void resume_join(std::size_t task, NodeId join) {
    PoolState& p = pools_[task];
    const DagTask& dag_task = ts_.task(task);
    const std::size_t region = *dag_task.region_of(join);
    const std::size_t thread = p.region_thread[region];
    if (thread >= m_) {
      // The fork has not suspended yet (it is still executing or its
      // completion is being processed). complete_node() handles this case
      // by running the join directly; nothing to do here.
      return;
    }
    start_node(task, thread, join);
    p.region_thread[region] = m_;
    --p.suspended_count;
  }

  // ---- dispatching ------------------------------------------------------

  /// Number of busy threads with priority at least `prio` (lower value =
  /// higher priority; equal-priority busy threads are ahead in FIFO order).
  std::size_t busy_at_least(int prio) const {
    std::size_t count = 0;
    for (std::size_t i : order_) {
      if (ts_.task(i).priority() > prio) break;
      count += pools_[i].busy;
    }
    return count;
  }

  void dispatch_global() {
    // Work-conserving activation: idle threads pull from their pool queue
    // whenever the pulled node would immediately get a core. One pass over
    // the pools suffices. A pull only turns an idle thread busy, so during
    // the pass busy counts only rise and queues only shrink. Pool i's pull
    // loop stops with its queue empty, with no idle thread left, or with
    // busy_at_least >= m; each of these still holds at the end of the
    // pass, so a second pass could pull nothing. Within pool i's loop only
    // its own pulls change its busy_at_least, one each.
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      PoolState& p = pools_[i];
      if (p.queues[0].empty()) continue;
      std::size_t busy_ahead = busy_at_least(ts_.task(i).priority());
      for (std::size_t th = 0; th < m_ && !p.queues[0].empty(); ++th) {
        if (p.threads[th].mode != ThreadMode::kIdle) continue;
        if (busy_ahead >= m_) break;  // would not get a core
        start_node(i, th, p.pop_front(0));
        ++busy_ahead;
      }
    }

    // Give the m highest-priority busy threads the cores.
    winners_.clear();
    for (std::size_t i : order_) {
      if (pools_[i].busy == 0) continue;
      for (std::size_t th = 0; th < m_ && winners_.size() < m_; ++th)
        if (pools_[i].threads[th].mode == ThreadMode::kBusy)
          winners_.push_back({i, th});
    }
    assign_cores();
  }

  /// Victim queue index an idle thread of pool `p` on `core` would steal
  /// from (first nonempty sibling queue, scanning upward), or m_ if none.
  std::size_t steal_victim(const PoolState& p, std::size_t core) const {
    for (std::size_t k = 1; k < m_; ++k) {
      const std::size_t victim = (core + k) % m_;
      if (!p.queues[victim].empty()) return victim;
    }
    return m_;
  }

  void dispatch_partitioned() {
    winners_.clear();
    for (std::size_t core = 0; core < m_; ++core) {
      // The first pool in priority order whose thread on this core is busy
      // or can start a node gets the core.
      for (std::size_t i : order_) {
        PoolState& p = pools_[i];
        const ThreadMode mode = p.threads[core].mode;
        if (mode == ThreadMode::kSuspended) continue;
        if (mode == ThreadMode::kIdle) {
          if (!p.queues[core].empty()) {
            start_node(i, core, p.pop_front(core));
          } else {
            // Steal from the back of the victim queue, Eigen-style.
            const std::size_t victim =
                config_.work_stealing ? steal_victim(p, core) : m_;
            if (victim == m_) continue;
            start_node(i, core, p.pop_back(victim));
          }
        }
        winners_.push_back({i, core});
        break;
      }
    }
    assign_cores();
  }

  /// Map the chosen run slots (`winners_`) onto cores, keeping continuing
  /// slots on their previous core so traces show stable placements.
  void assign_cores() {
    std::fill(next_.begin(), next_.end(), std::nullopt);
    placed_.assign(winners_.size(), false);

    for (std::size_t c = 0; c < m_; ++c) {
      if (!running_[c].has_value()) continue;
      for (std::size_t s = 0; s < winners_.size(); ++s) {
        if (!placed_[s] && winners_[s] == *running_[c]) {
          next_[c] = winners_[s];
          placed_[s] = true;
          break;
        }
      }
    }
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < winners_.size(); ++s) {
      if (placed_[s]) continue;
      while (cursor < m_ && next_[cursor].has_value()) ++cursor;
      if (cursor >= m_) break;  // defensive; winners_.size() <= m_ by construction
      next_[cursor] = winners_[s];
    }
    running_.swap(next_);
  }

  // ---- trace -----------------------------------------------------------

  void trace_switch(Time now) {
    if (!config_.collect_trace) return;
    for (std::size_t c = 0; c < m_; ++c) {
      const auto& open = open_interval_[c];
      const auto& cur = running_[c];
      const bool same =
          open.has_value() && cur.has_value() && open->slot == cur.value() &&
          open->node == pools_[cur->task].threads[cur->thread].node;
      if (same) continue;
      if (open.has_value() && now > open->start + kEps) {
        result_.trace.push_back({c, open->slot.task, open->node, open->start, now});
      }
      if (cur.has_value()) {
        open_interval_[c] = OpenInterval{
            *cur, pools_[cur->task].threads[cur->thread].node, now};
      } else {
        open_interval_[c].reset();
      }
    }
  }

  // ---- main loop pieces --------------------------------------------------

  void advance(Time dt) {
    for (const auto& slot : running_) {
      if (!slot.has_value()) continue;
      ThreadState& th = pools_[slot->task].threads[slot->thread];
      th.remaining -= dt;
    }
  }

  void process_instant(Time t) {
    bool changed = true;
    while (changed && !halted_) {
      changed = false;

      // Job releases due at t.
      if (next_release_ <= t + kEps) {
        next_release_ = std::numeric_limits<Time>::infinity();
        for (std::size_t i = 0; i < ts_.size(); ++i) {
          PoolState& p = pools_[i];
          while (!p.releases_exhausted && p.next_release <= t + kEps) {
            const Time release = p.next_release;
            ++result_.per_task[i].jobs_released;
            if (p.job_active) {
              p.backlog.push_back(release);
            } else {
              start_job(i, release);
            }
            schedule_next_release(i, release);
            changed = true;
          }
          if (!p.releases_exhausted)
            next_release_ = std::min(next_release_, p.next_release);
        }
      }

      // A dispatch is idempotent: rerun with no job start or node
      // completion in between, it pulls nothing and keeps every placement
      // (the single-pass argument in dispatch_global; under partitioned
      // scheduling no pool ahead of a core's winner can become runnable
      // without an enqueue). So it reruns only when one of those happened.
      if (dispatch_stale_) {
        dispatch_stale_ = false;
        if (partitioned()) {
          dispatch_partitioned();
        } else {
          dispatch_global();
        }
      }

      // Completions of running nodes that have exhausted their budget.
      for (std::size_t c = 0; c < m_; ++c) {
        if (!running_[c].has_value()) continue;
        const RunSlot slot = *running_[c];
        ThreadState& th = pools_[slot.task].threads[slot.thread];
        if (th.mode == ThreadMode::kBusy && th.remaining <= completion_eps(t)) {
          // Close the trace interval at the true finish time.
          if (config_.collect_trace && open_interval_[c].has_value()) {
            const OpenInterval& oi = *open_interval_[c];
            if (t > oi.start + kEps)
              result_.trace.push_back({c, oi.slot.task, oi.node, oi.start, t});
            open_interval_[c].reset();
          }
          complete_node(slot.task, slot.thread, t);
          running_[c].reset();
          changed = true;
        }
      }
    }
    trace_switch(t);
    detect_deadlocks(t);
  }

  void schedule_next_release(std::size_t task, Time current_release) {
    PoolState& p = pools_[task];
    const Time period = ts_.task(task).period();
    Time next = current_release + period;
    if (config_.release_jitter_frac > 0.0)
      next += period * rng_.uniform(0.0, config_.release_jitter_frac);
    if (next >= config_.horizon - kEps) {
      p.releases_exhausted = true;
    } else {
      p.next_release = next;
    }
  }

  /// A task is permanently stuck exactly when its job is incomplete and no
  /// pool thread is busy after a work-conserving dispatch: every remaining
  /// node either waits behind a suspended thread or belongs to an unopened
  /// barrier whose members do (see engine.h).
  void detect_deadlocks(Time t) {
    if (result_.deadlock.has_value()) return;
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      PoolState& p = pools_[i];
      if (!p.job_active || p.deadlocked || p.busy > 0) continue;

      // Distinguish a *preempted* pool (work is dispatchable, the threads
      // simply lost their cores to higher-priority tasks) from a *stuck*
      // one: dispatchable work means an idle (non-suspended) thread can
      // still pull a queued node once a core frees up.
      bool dispatchable = false;
      if (partitioned()) {
        for (std::size_t th = 0; th < m_; ++th) {
          if (p.threads[th].mode != ThreadMode::kIdle) continue;
          if (!p.queues[th].empty() ||
              (config_.work_stealing && steal_victim(p, th) < m_)) {
            dispatchable = true;
            break;
          }
        }
      } else {
        // No thread is busy, so the threads not suspended are idle.
        dispatchable = p.suspended_count < m_ && !p.queues[0].empty();
      }
      if (dispatchable) continue;

      p.deadlocked = true;
      DeadlockInfo info;
      info.task_index = i;
      info.time = t;
      info.description =
          ts_.task(i).name() + " stalled at t=" + std::to_string(t) + ": " +
          std::to_string(p.suspended_count) + "/" + std::to_string(m_) +
          " threads suspended on barriers, no runnable node remains (" +
          std::to_string(p.nodes_left) + " nodes pending)";
      result_.deadlock = info;
      halted_ = true;
      return;
    }
  }

  Time next_event_time(Time t) const {
    Time next = next_release_;
    for (const auto& slot : running_) {
      if (!slot.has_value()) continue;
      const ThreadState& th = pools_[slot->task].threads[slot->thread];
      next = std::min(next, t + std::max(th.remaining, 0.0));
    }
    return next;
  }

  void finalize(Time t) {
    trace_switch(t);
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      PoolState& p = pools_[i];
      result_.per_task[i].min_available_concurrency = p.min_available;
      if (!p.job_active) continue;
      // Cut-off job: only count a miss if its deadline already passed.
      JobRecord rec = job_record(i, t, /*completed=*/false);
      rec.deadline_miss = p.job_release + ts_.task(i).deadline() < t - kEps ||
                          p.deadlocked;
      if (rec.deadline_miss) {
        ++result_.per_task[i].deadline_misses;
        result_.any_deadline_miss = true;
      }
      result_.jobs.push_back(rec);
    }
  }

  struct OpenInterval {
    RunSlot slot;
    NodeId node = 0;
    Time start = 0.0;
  };

  const model::TaskSet& ts_;
  SimConfig config_;
  std::size_t m_;
  util::Rng rng_;

  std::vector<std::size_t> order_;  ///< ts_.priority_order(), computed once.
  std::vector<PoolState> pools_;
  std::vector<std::optional<RunSlot>> running_;  ///< Per core.
  // Per-instant scratch of dispatch/assign_cores, kept to avoid allocation.
  std::vector<RunSlot> winners_;
  std::vector<std::optional<RunSlot>> next_;
  std::vector<bool> placed_;
  std::vector<std::optional<OpenInterval>> open_interval_{};
  SimResult result_;
  bool halted_ = false;
  bool dispatch_stale_ = true;  ///< A job started or a node completed since.
  Time next_release_ = 0.0;     ///< Earliest pending release of any pool.
};

}  // namespace

SimResult simulate(const model::TaskSet& ts, const SimConfig& config) {
  return Engine(ts, config).run();
}

const char* to_string(SimOutcome outcome) {
  switch (outcome) {
    case SimOutcome::kOk: return "ok";
    case SimOutcome::kDeadlineMiss: return "deadline-miss";
    case SimOutcome::kDeadlock: return "deadlock";
  }
  return "ok";
}

SimOutcome parse_sim_outcome(const std::string& name) {
  if (name == "ok") return SimOutcome::kOk;
  if (name == "deadline-miss") return SimOutcome::kDeadlineMiss;
  if (name == "deadlock") return SimOutcome::kDeadlock;
  throw std::invalid_argument("unknown sim outcome '" + name +
                              "' (valid: ok, deadline-miss, deadlock)");
}

SimVerdict oracle_verdict(const model::TaskSet& ts,
                          const OracleOptions& options) {
  if (!(options.windows > 0.0))
    throw std::invalid_argument("oracle_verdict: windows must be positive");
  util::Time max_period = 0.0;
  for (const model::DagTask& task : ts.tasks())
    max_period = std::max(max_period, task.period());

  SimConfig config;
  config.policy = options.policy;
  config.horizon = options.windows * max_period;
  config.partition = options.partition;
  config.work_stealing = options.work_stealing;
  config.collect_trace = options.collect_trace;
  config.stop_on_miss = true;
  config.release_jitter_frac = options.release_jitter_frac;
  config.seed = options.seed;

  SimVerdict verdict;
  verdict.horizon = config.horizon;
  auto result = std::make_shared<SimResult>(simulate(ts, config));

  // A deadlock outranks the misses it causes: finalize marks every job cut
  // off by the stall as missed, but the stall itself is the event.
  if (result->deadlock.has_value()) {
    verdict.outcome = SimOutcome::kDeadlock;
    verdict.first_violation_task = result->deadlock->task_index;
    verdict.first_violation_time = result->deadlock->time;
    verdict.description = result->deadlock->description;
  } else if (result->any_deadline_miss) {
    verdict.outcome = SimOutcome::kDeadlineMiss;
    // Jobs are recorded in completion order; the first missing record is
    // the first violation the run observed.
    for (const JobRecord& rec : result->jobs) {
      if (!rec.deadline_miss) continue;
      verdict.first_violation_task = rec.task_index;
      verdict.first_violation_time = rec.completion;
      {
        std::ostringstream os;
        os << "task " << rec.task_index << " ('"
           << ts.task(rec.task_index).name() << "') job " << rec.job_number
           << (rec.completed ? " missed: R=" : " cut off: R>=") << rec.response
           << " > D=" << ts.task(rec.task_index).deadline();
        verdict.description = os.str();
      }
      break;
    }
  }
  verdict.result = std::move(result);
  return verdict;
}

}  // namespace rtpool::sim
