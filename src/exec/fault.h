// Seeded fault injection for pool-backed graph runs.
//
// A FaultPlan assigns at most one fault to each node of a DagTask:
//
//   kWcetOverrun — the node's synthetic busy-work is multiplied by
//                  `overrun_factor`: the WCET assumption of the RTA (Eq. 4)
//                  is violated on purpose;
//   kStall       — the node sleeps for `stall` on top of its work: a
//                  long-latency hiccup (page fault, I/O) that must trip the
//                  watchdog's *budget*, never its deadlock verdict;
//   kThrow       — the node body throws: exercises the exception-safe
//                  worker path (failed_nodes in ExecReport, no terminate);
//   kDropNotify  — the wakeup that would open this BJ node's barrier is
//                  lost once, also when the barrier opens before the fork
//                  parks on it: a lost wakeup the watchdog must detect
//                  (satisfied-but-sleeping barrier) and heal by re-notify;
//   kWorkerDeath — the worker executing this node crashes (the closure is
//                  handed back to its queue first, so the node is re-run
//                  exactly once by the recovery path): exercises dead-worker
//                  detection, requeue and respawn-with-backoff;
//   kWorkerHang  — the worker executing this node wedges forever (parked
//                  until pool shutdown): the watchdog must read the stale
//                  heartbeat as a LIVENESS failure — never as a deadlock —
//                  condemn the worker and re-dispatch the node.
//
// Lethal kinds (death/hang) are only ever assigned to NB/BC nodes, which
// run as dedicated plain closures in both execution modes: killing a BF/BJ
// closure mid-barrier could replay fork/join side effects. (The executor
// injects lethal faults before ANY node side effect, so the re-run executes
// the node exactly once.)
//
// Plans are either hand-built or drawn by make_random_fault_plan(), which
// derives every per-node decision from (seed, node id) via Rng::fork_with —
// a failure observed in the stress harness replays exactly from its seed,
// independent of sampling order.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "model/dag_task.h"

namespace rtpool::exec {

enum class FaultKind : std::uint8_t {
  kNone,
  kWcetOverrun,
  kStall,
  kThrow,
  kDropNotify,
  kWorkerDeath,
  kWorkerHang,
};

const char* to_string(FaultKind kind);

struct NodeFault {
  FaultKind kind = FaultKind::kNone;
  double overrun_factor = 1.0;         ///< kWcetOverrun: busy-work multiplier.
  std::chrono::milliseconds stall{0};  ///< kStall: extra sleep.
  std::string message;                 ///< kThrow: exception text.
};

/// Per-node fault assignment for one run. Node ids refer to the task the
/// plan was built for; the executor ignores entries for unknown ids.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  void set(model::NodeId v, NodeFault fault);

  /// The fault for node v, or nullptr when v runs clean.
  const NodeFault* find(model::NodeId v) const;

  bool empty() const { return faults_.empty(); }
  std::size_t count(FaultKind kind) const;
  std::uint64_t seed() const { return seed_; }
  const std::map<model::NodeId, NodeFault>& faults() const { return faults_; }

 private:
  std::uint64_t seed_ = 0;
  std::map<model::NodeId, NodeFault> faults_;
};

/// Per-kind injection probabilities (independent rolls, first hit wins in
/// the order drop-notify, worker-death, worker-hang, throw, stall,
/// overrun) and magnitude caps.
struct FaultPlanParams {
  double p_overrun = 0.0;
  double p_stall = 0.0;
  double p_throw = 0.0;
  double p_drop_notify = 0.0;   ///< Only ever applied to BJ nodes.
  double p_worker_death = 0.0;  ///< Only ever applied to NB/BC nodes.
  double p_worker_hang = 0.0;   ///< Only ever applied to NB/BC nodes.
  double max_overrun_factor = 8.0;
  std::chrono::milliseconds max_stall{30};
};

/// Draw a plan for `task`: node v's fault depends only on (seed, v).
FaultPlan make_random_fault_plan(const model::DagTask& task,
                                 const FaultPlanParams& params,
                                 std::uint64_t seed);

/// "seed=7: node 3 throw, node 5 overrun x4.2" rendering.
std::string describe(const FaultPlan& plan);

}  // namespace rtpool::exec
