// Shared machinery of the rtpool end-to-end benchmark: the workload
// interface main.cpp runs, pass samples, the span tracer of the traced
// replay, and small helpers (clocks, order statistics).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace rtbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// Process CPU time (every thread of the process), in seconds.
double process_cpu_seconds();

/// Peak resident set size of the process, in MiB.
double peak_rss_mib();

/// Current resident set size of the process, in MiB.
double current_rss_mib();

/// Median of `values` (0 for an empty list).
double median(std::vector<double> values);

/// The highest order statistic of `values` with at least `beyond` samples
/// above it. Returns the value and writes the percentile it stands at.
double tail_value(std::vector<double> values, std::size_t beyond,
                  double* percentile);

/// Thrown when a benchmark output fails a correctness check.
class CheckFailure : public std::runtime_error {
 public:
  explicit CheckFailure(const std::string& what) : std::runtime_error(what) {}
};

/// Throw CheckFailure(`what`) unless `ok`.
void require(bool ok, const std::string& what);

/// One timed pass over a workload's fixed input list.
struct PassSample {
  std::vector<double> op_ms;  ///< Latency of every op, in ms.
  double wall_s = 0.0;        ///< Wall time of the whole pass.
  double cpu_s = 0.0;         ///< Process CPU time over the pass.
  std::uint64_t failed = 0;   ///< Ops that returned an error.
};

// ---------------------------------------------------------------------------
// Traced replay: spans around the public calls of each layer.

/// One recorded span. `parent` indexes the enclosing span (-1 for an op
/// root); spans of one op share `op`. `on_path` is false for probes that
/// time a layer the program does not call at that point of its path.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
  bool on_path = true;
};

/// In-memory span recorder. Spans nest by call order (begin/end on one
/// thread); everything is written out by write_json at the end of a run.
class Tracer {
 public:
  Tracer();

  int begin(const char* name, std::uint64_t op, bool on_path);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total self time (duration minus the time covered by
  /// child spans) and span count.
  struct SelfTime {
    double total_us = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, SelfTime> self_times() const;

  /// Mean self time of the spans named `name`, in us (0 when none).
  double mean_self_us(const std::string& name) const;

  /// Sum over op-root spans of the self time of their on-path descendants,
  /// per op id (what the program's own calls cost for that op).
  std::map<std::uint64_t, double> on_path_us_per_op() const;

  /// Sum of the durations of all non-root spans (layer calls), in us.
  double layer_span_us() const;

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  void write_json(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced replay).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t op,
        bool on_path = true)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->begin(name, op, on_path) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// One per-layer metric of the traced replay.
struct LayerValue {
  double value = 0.0;
  const char* unit = "";
};

/// Per-layer metrics a workload's replay contributes (name -> value).
using LayerMetrics = std::map<std::string, LayerValue>;

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed op: input generation (pass 0's
  /// input list), starting the service, connecting, the untimed warm-up.
  /// Timed as setup_s.
  virtual void setup() = 0;
  /// Undo setup() (stop services), so setup can be timed again.
  virtual void teardown() = 0;

  /// Untimed: make the input list of pass `pass` > 0, a function of the
  /// seed and `pass` alone.
  virtual void prepare_pass(int pass) = 0;
  /// The timed pass over the prepared input list.
  virtual PassSample run_pass(int pass) = 0;
  /// Untimed: check the outputs of the pass that just ran (CheckFailure).
  virtual void check_pass(int pass) = 0;
  /// Untimed: checks that need the whole run (CheckFailure).
  virtual void check_run() = 0;

  /// Replay the last pass's inputs through the layers' public calls.
  /// `tracer` null = the untraced replay the tracing overhead is taken
  /// against. Returns the replay's wall time in seconds.
  virtual double replay(Tracer* tracer) = 0;
  /// Per-layer metrics from the traced replay in `tracer` and the pass it
  /// replayed.
  virtual LayerMetrics layer_metrics(const Tracer& tracer,
                                     const PassSample& pass) = 0;

  /// Counters for the run record (printed, not compared).
  virtual std::map<std::string, std::uint64_t> record_counts() = 0;
};

/// Options every workload is constructed with.
struct WorkloadOptions {
  std::uint64_t seed = 1;
  int corrupt = 0;  ///< Self-test: 1 corrupts one checked output.
  std::string data_dir = "perfbench";  ///< Holds corpus_costs.txt.
};

std::unique_ptr<Workload> make_corpus_workload(const WorkloadOptions& options);
/// Measure and print the corpus workload's cost table
/// (perfbench/corpus_costs.txt).
void print_corpus_costs();
std::unique_ptr<Workload> make_admission_workload(const WorkloadOptions& options,
                                                  bool warm);
std::unique_ptr<Workload> make_sweep_workload(const WorkloadOptions& options);

}  // namespace rtbench
