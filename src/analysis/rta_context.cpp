#include "analysis/rta_context.h"

#include <algorithm>

#include "analysis/deadlock.h"
#include "graph/algorithms.h"
#include "graph/reachability.h"

namespace rtpool::analysis {

bool same_analysis(const GlobalRtaOptions& a, const GlobalRtaOptions& b) {
  return a.limited_concurrency == b.limited_concurrency && a.bound == b.bound &&
         a.concurrency == b.concurrency && a.max_iterations == b.max_iterations;
}

bool same_analysis(const PartitionedRtaOptions& a, const PartitionedRtaOptions& b) {
  return a.max_iterations == b.max_iterations &&
         a.require_deadlock_free == b.require_deadlock_free && a.bound == b.bound;
}

RtaContext::RtaContext(const model::TaskSet& ts) : ts_(&ts) { reset(ts); }

void RtaContext::reset(const model::TaskSet& ts) {
  ts_ = &ts;
  const std::size_t n = ts.size();

  view_built_ = false;
  view_arena_.reset();  // buffer capacity survives in arena_buffer_

  priority_order_built_ = false;
  if (higher_priority_.size() < n) higher_priority_.resize(n);
  higher_priority_built_.assign(n, 0);

  binding_ = 0;
  bound_.per_task.clear();
  bound_cores_ = 0;
  deadlock_free_.clear();

  snapshots_enabled_ = false;
  global_snapshot_.valid = false;
  partitioned_snapshot_.valid = false;

  incremental_.active = false;
  incremental_.prefix = 0;
  incremental_hits_ = 0;
}

void RtaContext::rebuild_view() {
  const std::size_t bytes = model::TaskSetView::bytes_required(*ts_);
  if (arena_buffer_.size() < bytes) arena_buffer_.resize(bytes);
  view_arena_.emplace(arena_buffer_.data(), arena_buffer_.size(),
                      std::pmr::new_delete_resource());
  view_.rebuild(*ts_, *view_arena_);
  view_built_ = true;
}

const model::TaskSetView& RtaContext::view() {
  if (!view_built_) rebuild_view();
  return view_;
}

const std::vector<std::size_t>& RtaContext::priority_order() {
  if (!priority_order_built_) {
    priority_order_ = ts_->priority_order();
    priority_order_built_ = true;
  }
  return priority_order_;
}

const std::vector<std::size_t>& RtaContext::higher_priority(std::size_t i) {
  if (!higher_priority_built_.at(i)) {
    higher_priority_[i] = ts_->higher_priority_of(i);
    higher_priority_built_[i] = 1;
  }
  return higher_priority_[i];
}

const std::vector<graph::NodeId>& RtaContext::topo_order(std::size_t i) {
  // DagTask caches its one topological order at construction; serving it
  // directly keeps the context free of per-task order copies.
  return ts_->task(i).topo_order();
}

void RtaContext::compute_fifo_blocking_row(
    std::size_t i, const std::vector<ThreadId>& thread_of) {
  const model::DagTask& task = ts_->task(i);
  const std::size_t n = task.node_count();
  const std::size_t off = view_.node_offset(i);
  const std::span<const util::Time> wcets = view_.task_wcets(i);
  util::Time* blocking = fifo_blocking_flat_.data() + off;

  // Group the nodes by core once (self-sizing: co-location is all that
  // matters here, the platform core count is irrelevant).
  ThreadId max_core = 0;
  for (model::NodeId v = 0; v < n; ++v) max_core = std::max(max_core, thread_of[v]);
  const std::size_t groups = static_cast<std::size_t>(max_core) + 1;
  if (on_core_scratch_.size() < groups) on_core_scratch_.resize(groups);
  for (std::size_t c = 0; c < groups; ++c) on_core_scratch_[c].resize_clear(n);
  for (model::NodeId v = 0; v < n; ++v) on_core_scratch_[thread_of[v]].set(v);

  const graph::Reachability& reach = task.reachability();
  for (model::NodeId v = 0; v < n; ++v) {
    if (task.type(v) == model::NodeType::BJ) {
      blocking[v] = 0.0;  // joins bypass the queue
      continue;
    }
    // Fused word sweep over on_core(core) ∧ ¬(anc(v) ∨ desc(v)) \ {v}: one
    // pass instead of unordered_mask (set_all + two and_nots) followed by
    // an and_assign. Ascending-id accumulation, so the sum is bit-identical
    // to the naive double loop (and to fifo_blocking_vector).
    const std::span<const std::uint64_t> aw = reach.ancestors(v).words();
    const std::span<const std::uint64_t> dw = reach.descendants(v).words();
    const std::span<const std::uint64_t> cw =
        on_core_scratch_[thread_of[v]].words();
    const std::size_t self_word = v / 64;
    util::Time b = 0.0;
    for (std::size_t w = 0; w < cw.size(); ++w) {
      std::uint64_t bits = cw[w] & ~(aw[w] | dw[w]);
      if (w == self_word) bits &= ~(std::uint64_t{1} << (v % 64));
      while (bits != 0) {
        const int t = __builtin_ctzll(bits);
        b += wcets[w * 64 + static_cast<std::size_t>(t)];
        bits &= bits - 1;
      }
    }
    blocking[v] = b;
  }
}

void RtaContext::bind_partition(const TaskSetPartition& partition) {
  const std::size_t n = ts_->size();
  if (partition.per_task.size() != n)
    throw model::ModelError("RtaContext::bind_partition: partition size mismatch");
  if (binding_ != 0 && bound_.per_task == partition.per_task) return;  // no-op

  const std::size_t m = ts_->core_count();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& thread_of = partition.per_task[i].thread_of;
    if (thread_of.size() != ts_->task(i).node_count())
      throw model::ModelError(
          "RtaContext::bind_partition: assignment size mismatch");
    for (ThreadId t : thread_of)
      if (t >= m)
        throw model::ModelError(
            "RtaContext::bind_partition: thread id out of range");
  }

  view();  // flat rows are indexed through the view's node offsets
  bound_cores_ = m;
  core_workload_flat_.assign(n * m, 0.0);
  fifo_blocking_flat_.assign(view_.total_nodes(), 0.0);
  deadlock_free_.assign(n, -1);

  // When incremental state is armed, a clean task that keeps its
  // node-to-thread row reuses the prior W_{i,p} row, B_v row and Lemma-3
  // verdict: all three are pure functions of (task content, assignment
  // row, core count), independent of the other tasks.
  const bool reuse = incremental_.active && incremental_.prior_cores == m &&
                     !incremental_.prior_thread_of.empty();

  for (std::size_t i = 0; i < n; ++i) {
    const auto& thread_of = partition.per_task[i].thread_of;
    if (reuse && incremental_.clean[i]) {
      const std::size_t j = incremental_.prior_index[i];
      if (incremental_.prior_thread_of[j] == thread_of) {
        std::copy_n(incremental_.prior_core_workload_flat.data() + j * m, m,
                    core_workload_flat_.data() + i * m);
        std::copy_n(incremental_.prior_fifo_blocking_flat.data() +
                        incremental_.prior_node_offset[j],
                    view_.node_count(i),
                    fifo_blocking_flat_.data() + view_.node_offset(i));
        deadlock_free_[i] = incremental_.prior_deadlock_free[j];
        continue;
      }
    }
    util::Time* w = core_workload_flat_.data() + i * m;
    const std::span<const util::Time> wcets = view_.task_wcets(i);
    for (std::size_t v = 0; v < thread_of.size(); ++v) w[thread_of[v]] += wcets[v];
    compute_fifo_blocking_row(i, thread_of);
  }
  bound_ = partition;
  ++binding_;
}

bool RtaContext::deadlock_free(std::size_t i) {
  if (binding_ == 0)
    throw model::ModelError("RtaContext::deadlock_free: no partition bound");
  if (deadlock_free_.at(i) < 0) {
    deadlock_free_[i] = is_deadlock_free_partitioned(
                            ts_->task(i), ts_->core_count(), bound_.per_task[i])
                            ? 1
                            : 0;
  }
  return deadlock_free_[i] == 1;
}

std::size_t RtaContext::begin_incremental(
    const RtaContext& prior,
    const std::vector<std::optional<std::size_t>>& task_map,
    const std::vector<char>& dirty) {
  const std::size_t n = ts_->size();
  const std::size_t n_prior = prior.ts_->size();
  if (task_map.size() != n)
    throw model::ModelError("RtaContext::begin_incremental: task_map size mismatch");

  Incremental& inc = incremental_;
  inc.prior_index.assign(n, kNoPrior);
  inc.clean.assign(n, 0);
  std::vector<char> used(n_prior, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!task_map[i].has_value()) continue;
    const std::size_t j = *task_map[i];
    if (j >= n_prior)
      throw model::ModelError(
          "RtaContext::begin_incremental: task_map out of range");
    if (used[j])
      throw model::ModelError(
          "RtaContext::begin_incremental: task_map not injective");
    used[j] = 1;
    inc.prior_index[i] = j;
    inc.clean[i] = (i < dirty.size() && dirty[i]) ? 0 : 1;
  }

  inc.prior_global = prior.global_snapshot_;
  inc.prior_partitioned = prior.partitioned_snapshot_;
  inc.prior_core_workload_flat = prior.core_workload_flat_;
  inc.prior_fifo_blocking_flat = prior.fifo_blocking_flat_;
  inc.prior_deadlock_free = prior.deadlock_free_;
  inc.prior_cores = prior.bound_cores_;
  inc.prior_thread_of.clear();
  inc.prior_node_offset.clear();
  if (prior.binding_ != 0) {
    inc.prior_thread_of.reserve(n_prior);
    for (const NodeAssignment& a : prior.bound_.per_task)
      inc.prior_thread_of.push_back(a.thread_of);
    inc.prior_node_offset.resize(n_prior + 1);
    for (std::size_t j = 0; j <= n_prior; ++j)
      inc.prior_node_offset[j] = prior.view_.node_offset(j);
  }

  // Structural prefix: position k of this set's priority order is copyable
  // iff its task is clean AND its prior incarnation j saw EXACTLY the
  // prior incarnations of positions 0..k-1 as its higher-priority set.
  // The count check (|hp_old(j)| == k) plus the membership check over the
  // (injective) mapped prefix establishes set equality; membership uses
  // the same priority/index tie-break as TaskSet::higher_priority_of, so
  // the ordered interference inputs of j's fixed point are unchanged.
  const model::TaskSet& old_ts = *prior.ts_;
  const auto hp_old = [&](std::size_t h, std::size_t j) {
    const int ph = old_ts.task(h).priority();
    const int pj = old_ts.task(j).priority();
    return ph < pj || (ph == pj && h < j);
  };
  const std::vector<std::size_t>& order = priority_order();
  std::size_t prefix = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t idx = order[k];
    if (!inc.clean[idx]) break;
    const std::size_t j = inc.prior_index[idx];
    std::size_t hp_count = 0;
    for (std::size_t h = 0; h < n_prior; ++h)
      if (hp_old(h, j)) ++hp_count;
    if (hp_count != k) break;
    bool all_hp = true;
    for (std::size_t e = 0; e < k && all_hp; ++e)
      all_hp = hp_old(inc.prior_index[order[e]], j);
    if (!all_hp) break;
    prefix = k + 1;
  }
  inc.prefix = prefix;
  inc.active = true;
  incremental_hits_ = 0;
  return prefix;
}

}  // namespace rtpool::analysis
