#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark program: options, the run report that
// becomes the last line of standard output, sample statistics, the host
// steal-time probe and the traced-window helper.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "spq/engine.h"
#include "trace_fold.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Worker slots of every engine the benchmark builds (EngineOptions::
/// num_workers; every other engine option stays at its default):
/// min(3, hardware threads - 1).
uint32_t BenchWorkers();

/// The engine options every workload uses: defaults, workers fixed.
spq::core::EngineOptions BenchEngineOptions();

/// Monotonic seconds (the engine's own clock source).
inline double Now() {
  return static_cast<double>(spq::metrics::NowNanos()) * 1e-9;
}

/// Writes "[perfbench +<seconds since start>] <what>" to standard error.
void Progress(const std::string& what);

/// q-quantile of `samples` by linear interpolation between closest ranks
/// (0 for an empty vector).
double Quantile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);

/// Cumulative host steal time of this machine in seconds, read from
/// /proc/stat (0 when unavailable). Read-only.
double HostStealSeconds();

/// What one run prints. Metrics not set by a workload keep their preset
/// value (0 for per-layer metrics the workload's layers never reach).
class Report {
 public:
  Report();

  void SetEndToEnd(const std::string& name, double value);
  void SetLayer(const std::string& name, double value);
  void Diagnostic(const std::string& name, double value);

  /// One operation of the timed phases, failed or not.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// An output of the program did not match the expected one.
  void Mismatch(const std::string& what);
  /// An answer differed from the reference only in which objects tied at
  /// the k-th score it kept: counted as a diagnostic, not a mismatch.
  void TieOrder(const std::string& what);
  /// Notes a problem that does not change the figures (stderr only).
  void Note(const std::string& what);

  /// Writes the diagnostics line and, last, the result object. Returns
  /// false (and prints no result) when an end-to-end metric is missing or
  /// not positive — a figure that would mean nothing.
  bool Print(bool trace) const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t tie_order_ = 0;
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layers_;
  std::map<std::string, double> diagnostics_;
};

/// Drains the engine's span rings after each traced operation so the
/// per-thread rings never fill, and folds the spans as it goes.
class TraceWindow {
 public:
  /// Clears the rings and turns capture on.
  TraceWindow();
  /// Turns capture off.
  ~TraceWindow();
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

  /// Folds and discards every buffered span. Call only while no engine
  /// work is in flight, so no span lands between collection and clearing.
  /// Work that has already answered its caller may still be closing a
  /// span: with `await_span`, waits until `await_count` spans of that name
  /// are buffered (up to a second; the ones still missing then count as
  /// dropped).
  void Drain(const char* await_span = nullptr, uint64_t await_count = 0);
  /// Per-layer rows: trace.<span>_self_ms as mean self time per traced
  /// query, trace.dropped_spans.
  void Publish(Report& report, uint64_t traced_queries);

 private:
  SpanTotals totals_;
  uint64_t dropped_ = 0;
};

/// Per-query figures of the mapreduce and spq layers, collected from the
/// SpqRunInfo of each timed query.
class QueryLayers {
 public:
  void Add(const spq::core::SpqRunInfo& info);
  void Publish(Report& report) const;

 private:
  std::vector<double> map_ms_, reduce_ms_, driver_ms_;
  std::vector<double> shuffle_mb_, map_output_records_;
  std::vector<double> straggler_, skew_;
  std::vector<double> features_kept_, duplication_;
  std::vector<double> pairs_tested_, examined_, early_stop_, cells_pruned_;
};

/// Engine-side invariants every answer must satisfy, whatever the query:
/// per-partition reduce inputs sum to the map output, reducers examine no
/// more features than were shuffled, and on a cold job every feature is
/// either kept or pruned. Returns "" or the first violated property.
std::string CheckRunInfo(const spq::core::SpqRunInfo& info, bool cold_job,
                         uint64_t num_features);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
