// Machine-checkable analysis certificates (translation validation for the
// analysis spine).
//
// Every optimized kernel (global_rta, partitioned_rta, federated) can emit,
// behind AnalyzerOptions::diagnostics, a small proof of its verdict: the
// final response-time iterates with their interference/blocking/self-term
// breakdown, the b̄ witness (pivot node + fork set, or the antichain), the
// Lemma-3 / Eq. (3) witnesses, the partition echo with its core loads, and
// — for unschedulable verdicts — the violated inequality with its operands
// (the iterate that crossed the deadline, the failing allocation, the
// diverged higher-priority blocker).
//
// The structures here are plain data: no behaviour, defaulted equality
// (used by the context-reuse golden tests), no pointers into kernel
// state. An INDEPENDENT checker (cert_check.h) re-validates every claim
// from the task set alone; it shares no kernel code with the emitters.
// Emission helpers living in cert.cpp (witness extraction) are kernel-side
// and may use analysis/ internals — the checker never calls them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/task_set.h"
#include "util/time.h"

namespace rtpool::analysis::cert {

/// Which kernel family produced the certificate.
enum class Family : unsigned char { kGlobal, kPartitioned, kFederated };

/// Per-task outcome claim. Each kind fixes which witness fields are
/// meaningful and which re-validation the checker performs.
enum class TaskClaim : unsigned char {
  kConverged,        ///< R is a fixed point of the task's recurrence.
  kDeadlineMiss,     ///< The monotone iteration crossed the deadline.
  kIterationBudget,  ///< max_iterations exhausted before convergence.
  kConcurrencyZero,  ///< Lemma 1: l̄ <= 0 (witness: the b̄ fork set).
  kEq3Violation,     ///< Lemma 3: Eq. (3) violated (witness: BC/BF/thread).
  kHpDiverged,       ///< A higher-priority task diverged (witness: blocker).
  kPartitionFailure, ///< The partitioner failed; no analysis ran.
  kDedicated,        ///< Federated: task got a dedicated-core allocation.
  kAllocationFailure,///< Federated: dedicated demand cannot be met.
  kSharedCoreFailure,///< Federated: a peer on the same core failed its RTA.
  kNoSharedCores,    ///< Federated: no cores left for the shared tasks.
};

const char* to_string(Family family);
const char* to_string(TaskClaim claim);

/// Sentinel for "no task/node/core referenced".
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// Witness for a claimed b̄(τ): the fork set achieving it. Two forms:
///  * affecting-forks (Section 3.1): `forks` = X(pivot), b̄ = |X(pivot)|;
///  * antichain (refinement): `forks` is a maximum antichain of the BF
///    poset (pairwise precedence-unordered), `pivot` unused (kNoIndex).
struct ConcurrencyWitness {
  std::size_t bbar = 0;               ///< Claimed b̄(τ) = |forks|.
  bool antichain = false;             ///< Which form (see above).
  std::size_t pivot = kNoIndex;       ///< Node v* with X(v*) = forks.
  std::vector<model::NodeId> forks;   ///< Ascending node ids.

  friend bool operator==(const ConcurrencyWitness&,
                         const ConcurrencyWitness&) = default;
};

// ---- global family ----

struct GlobalTaskCert {
  TaskClaim claim = TaskClaim::kConverged;
  bool schedulable = false;
  /// Final iterate of the recurrence (kernel's TaskRta::response_time):
  /// the fixed point for kConverged, the first iterate past the deadline
  /// for kDeadlineMiss, the last iterate for kIterationBudget, infinity
  /// for the skipped claims.
  util::Time response = util::kTimeInfinity;
  /// Interference divisor: m (baseline) or l̄(τ) (limited concurrency).
  double denominator = 0.0;
  util::Time critical_path = 0.0;      ///< len(λ*) at the analyzed scale.
  util::Time self_interference = 0.0;  ///< vol(τ) − len(λ*) at scale.
  /// kConverged only: I_{j,i}(R) per higher-priority task, aligned with
  /// ts.higher_priority_of(i) (the hp index list is not echoed — the
  /// checker re-derives it from the task set's priorities).
  std::vector<util::Time> hp_interference;
  /// Present whenever the limited-concurrency bound fed the denominator.
  std::optional<ConcurrencyWitness> concurrency;
  /// kHpDiverged: the diverged higher-priority task index.
  std::size_t blocker = kNoIndex;

  friend bool operator==(const GlobalTaskCert&, const GlobalTaskCert&) = default;
};

struct GlobalCert {
  bool limited = false;         ///< Limited-concurrency denominator l̄.
  bool antichain_bound = false; ///< b̄ via max antichain (else X(v) form).
  bool carry_in = false;        ///< Melani carry-in interference bound.
  int max_iterations = 0;
  std::vector<GlobalTaskCert> per_task;  ///< Indexed like TaskSet::tasks().

  friend bool operator==(const GlobalCert&, const GlobalCert&) = default;
};

// ---- partitioned family ----

/// One SPLIT segment: FIFO blocking operand (unit scale) and the converged
/// per-segment response at the analyzed scale.
struct SegmentCert {
  util::Time blocking = 0.0;
  util::Time response = 0.0;

  friend bool operator==(const SegmentCert&, const SegmentCert&) = default;
};

/// Eq. (3) violation witness: BC node co-located with a dangerous BF.
struct Eq3WitnessCert {
  model::NodeId bc_node = 0;
  model::NodeId fork = 0;
  std::uint32_t thread = 0;

  friend bool operator==(const Eq3WitnessCert&, const Eq3WitnessCert&) = default;
};

struct PartitionedTaskCert {
  TaskClaim claim = TaskClaim::kConverged;
  bool schedulable = false;
  bool deadlock_free = false;  ///< Lemma-3 verdict under the echoed partition.
  /// Kernel's PartitionedTaskRta::response_time (infinite when diverged).
  util::Time response = util::kTimeInfinity;
  /// SPLIT bound: per-node segments, up to and including the first
  /// diverging node (later entries keep their zero defaults).
  std::vector<SegmentCert> segments;
  /// Holistic bound: longest path over scale·(C_v + B_v).
  util::Time holistic_base = 0.0;
  /// kDeadlineMiss / kIterationBudget: the failing iterate, and (SPLIT
  /// only) the segment node it occurred at.
  std::size_t miss_node = kNoIndex;
  util::Time miss_value = util::kTimeInfinity;
  /// kConcurrencyZero witness (b̄ ≥ m).
  std::optional<ConcurrencyWitness> concurrency;
  /// kEq3Violation witness.
  std::optional<Eq3WitnessCert> eq3;
  /// kHpDiverged: the diverged higher-priority task index.
  std::size_t blocker = kNoIndex;

  friend bool operator==(const PartitionedTaskCert&,
                         const PartitionedTaskCert&) = default;
};

struct PartitionedCert {
  bool split = true;                  ///< SPLIT (per-segment) vs holistic.
  bool require_deadlock_free = true;
  int max_iterations = 0;
  /// The analyzed node-to-thread partition, echoed per task. The checker
  /// validates it structurally (sizes, thread ids < m) and re-derives all
  /// per-core operands from it; whether it is the partition the analyzer's
  /// partitioner WOULD produce is outside the certificate's scope (that
  /// would require re-running kernel code — see DESIGN.md).
  std::vector<std::vector<std::uint32_t>> thread_of;
  /// Per-core utilization induced by the partition (unit scale).
  std::vector<double> core_load;
  /// Non-empty = the partitioner failed before any analysis ran; every
  /// task then claims kPartitionFailure.
  std::string partition_failure;
  std::vector<PartitionedTaskCert> per_task;

  friend bool operator==(const PartitionedCert&, const PartitionedCert&) = default;
};

// ---- federated family ----

struct FederatedTaskCert {
  TaskClaim claim = TaskClaim::kConverged;
  bool schedulable = false;
  bool dedicated = false;
  std::size_t cores = 0;        ///< Dedicated-core allocation (0 if shared).
  std::size_t bbar = 0;         ///< b̄(τ) charged as extra threads (limited).
  /// Witness for bbar when the limited adaptation charged it (bbar > 0).
  std::optional<ConcurrencyWitness> concurrency;
  std::size_t core = kNoIndex;  ///< Shared-core index the task was placed on.
  /// Shared tasks: final uniprocessor-RTA iterate (the fixed point for
  /// passing tasks, the failing iterate for kDeadlineMiss; infinite when
  /// the core's RTA never reached the task).
  util::Time response = util::kTimeInfinity;
  /// kSharedCoreFailure: the peer task index whose RTA failed the core.
  std::size_t blocker = kNoIndex;

  friend bool operator==(const FederatedTaskCert&, const FederatedTaskCert&) = default;
};

struct FederatedCert {
  bool limited = false;
  std::size_t dedicated_cores = 0;  ///< Total dedicated allocation (≤ m).
  /// Task indices per shared core, in the deadline-monotonic order the
  /// per-core RTA analyzed (outer index = shared core id).
  std::vector<std::vector<std::size_t>> shared_order;
  std::vector<FederatedTaskCert> per_task;

  friend bool operator==(const FederatedCert&, const FederatedCert&) = default;
};

// ---- envelope ----

/// The certificate attached to analysis::Report. Exactly one family
/// payload is engaged (matching `family`).
struct Certificate {
  Family family = Family::kGlobal;
  std::string analyzer;      ///< Registry name that produced it.
  double wcet_scale = 1.0;
  bool schedulable = false;  ///< Set-level verdict (AND of per-task claims).
  std::optional<GlobalCert> global;
  std::optional<PartitionedCert> partitioned;
  std::optional<FederatedCert> federated;

  friend bool operator==(const Certificate&, const Certificate&) = default;
};

// ---- kernel-side emission helpers (cert.cpp; NOT used by the checker) ----

/// Extract the b̄ witness for a task: the argmax X(v) fork set (affecting
/// form) or a maximum BF antichain (`antichain` = true).
ConcurrencyWitness make_concurrency_witness(const model::DagTask& task,
                                            bool antichain);

}  // namespace rtpool::analysis::cert
