#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "common/trace.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

// Every span name the engine records (common/trace.h inventory).
constexpr const char* kSpans[] = {
    "door.admit",       "door.batch_close", "door.serve_batch",
    "query.warm",       "query.warm_batch", "query.snapshot_pin",
    "store.build",      "store.publish",    "store.materialize",
    "store.fold_delta", "store.compact",    "store.checkpoint",
    "store.recover",    "job.run",          "job.map",
    "job.shuffle",      "job.reduce",       "map.task",
    "reduce.task",      "reduce.join",      "wal.append",
    "wal.replay",
};

constexpr MetricSpec kLayers[] = {
    {"mapreduce.map_ms", "ms"},
    {"mapreduce.reduce_ms", "ms"},
    {"mapreduce.driver_ms", "ms"},
    {"mapreduce.shuffle_mb", "MB"},
    {"mapreduce.map_output_records", "count"},
    {"mapreduce.reduce_straggler_ratio", "ratio"},
    {"mapreduce.reduce_skew", "ratio"},
    {"spq.map.features_kept", "count"},
    {"spq.map.duplication_factor", "ratio"},
    {"spq.reduce.pairs_tested", "count"},
    {"spq.reduce.examined_ratio", "ratio"},
    {"spq.reduce.early_stop_ratio", "ratio"},
    {"spq.reduce.cells_pruned_ratio", "ratio"},
    {"cell_store.ctor_s", "s"},
    {"cell_store.build_s", "s"},
    {"cell_store.materialize_s", "s"},
    {"cell_store.insert_us", "us"},
    {"cell_store.delete_us", "us"},
    {"cell_store.cells_compacted", "count"},
    {"cell_store.checkpoint_ms", "ms"},
    {"cell_store.checkpoint_mb", "MB"},
    {"cell_store.open_ms", "ms"},
    {"cell_store.recovery_ms", "ms"},
    {"cell_store.cells_restored", "count"},
    {"serving.door_p99_ms", "ms"},
    {"serving.batch_size", "count"},
    {"serving.queue_wait_ms", "ms"},
    {"serving.batch_job_ms", "ms"},
    {"trace.dropped_spans", "count"},
    {"trace.overhead_ms", "ms"},
};

std::string TraceMetricName(const std::string& span) {
  return "trace." + span + "_self_ms";
}

const char* UnitOf(const std::string& name) {
  for (const MetricSpec& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const MetricSpec& m : kLayers) {
    if (name == m.name) return m.unit;
  }
  return "ms";  // trace.<span>_self_ms
}

void AppendNumber(std::ostringstream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  os << buf;
}

}  // namespace

uint32_t BenchWorkers() {
  // One hardware thread is left to the load generator and the host: on a
  // 4-vCPU guest, 4 workers gave no lower warm p50 than 3 and widened its
  // run-to-run spread from about 5% to about 14%.
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  return std::min(3u, hw - 1);
}

spq::core::EngineOptions BenchEngineOptions() {
  spq::core::EngineOptions options;
  options.num_workers = BenchWorkers();
  return options;
}

void Progress(const std::string& what) {
  static const double start = Now();
  std::fprintf(stderr, "[perfbench +%.2fs] %s\n", Now() - start,
               what.c_str());
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  double fields[8] = {};
  for (double& f : fields) {
    if (!(in >> f)) return 0.0;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? fields[7] / static_cast<double>(ticks) : 0.0;
}

Report::Report() {
  for (const MetricSpec& m : kLayers) layers_[m.name] = 0.0;
  for (const char* span : kSpans) layers_[TraceMetricName(span)] = 0.0;
}

void Report::SetEndToEnd(const std::string& name, double value) {
  end_to_end_[name] = value;
}

void Report::SetLayer(const std::string& name, double value) {
  if (layers_.count(name) == 0) {
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                 name.c_str());
    return;
  }
  layers_[name] = value;
}

void Report::Diagnostic(const std::string& name, double value) {
  diagnostics_[name] = value;
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
}

void Report::TieOrder(const std::string& what) {
  ++tie_order_;
  std::fprintf(stderr, "perfbench: tie order: %s\n", what.c_str());
}

void Report::Note(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

bool Report::Print(bool trace) const {
  std::ostringstream diag;
  diag << "diagnostics: tie_order_differences=" << tie_order_;
  for (const auto& [name, value] : diagnostics_) {
    diag << ' ' << name << '=';
    AppendNumber(diag, value);
  }
  std::printf("%s\n", diag.str().c_str());

  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value) {
    if (!first) os << ", ";
    first = false;
    os << '"' << name << "\": {\"value\": ";
    AppendNumber(os, value);
    os << ", \"unit\": \"" << UnitOf(name) << "\"}";
  };
  if (trace) {
    for (const auto& [name, value] : layers_) emit(name, value);
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      auto it = end_to_end_.find(m.name);
      if (it == end_to_end_.end() || !(it->second > 0.0) ||
          !std::isfinite(it->second)) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s not measured\n",
                     m.name);
        return false;
      }
      emit(m.name, it->second);
    }
  }
  os << "}}";
  if (attempted_ == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return false;
  }
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
  return true;
}

TraceWindow::TraceWindow() {
  spq::trace::Clear();
  spq::trace::SetEnabled(true);
}

TraceWindow::~TraceWindow() { spq::trace::SetEnabled(false); }

void TraceWindow::Drain(const char* await_span, uint64_t await_count) {
  std::vector<spq::trace::SpanEvent> events = spq::trace::Collect();
  auto buffered = [&] {
    if (await_span == nullptr) return await_count;
    return static_cast<uint64_t>(std::count_if(
        events.begin(), events.end(), [&](const spq::trace::SpanEvent& e) {
          return std::strcmp(e.name, await_span) == 0;
        }));
  };
  const double deadline = Now() + 1.0;
  while (buffered() < await_count && Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    events = spq::trace::Collect();
  }
  if (buffered() < await_count) dropped_ += await_count - buffered();
  dropped_ += spq::trace::DroppedSpans();
  FoldSpans(events, totals_);
  spq::trace::Clear();
}

void TraceWindow::Publish(Report& report, uint64_t traced_queries) {
  Drain();
  const double per = traced_queries > 0 ? 1.0 / traced_queries : 0.0;
  for (const char* span : kSpans) {
    auto it = totals_.self_ns.find(span);
    const double ns = it == totals_.self_ns.end() ? 0.0 : it->second;
    report.SetLayer(TraceMetricName(span), ns * 1e-6 * per);
  }
  for (const auto& [name, ns] : totals_.self_ns) {
    if (std::find_if(std::begin(kSpans), std::end(kSpans), [&](const char* s) {
          return name == s;
        }) == std::end(kSpans)) {
      report.Note("span " + name + " is not in the benchmark's inventory");
    }
  }
  report.SetLayer("trace.dropped_spans", static_cast<double>(dropped_));
  if (dropped_ > 0) {
    report.Note("the traced window dropped spans; its table is incomplete");
  }
}

void QueryLayers::Add(const spq::core::SpqRunInfo& info) {
  const auto& job = info.job;
  map_ms_.push_back(job.map_seconds * 1e3);
  reduce_ms_.push_back(job.reduce_seconds * 1e3);
  driver_ms_.push_back(
      (job.total_seconds - job.map_seconds - job.reduce_seconds) * 1e3);
  shuffle_mb_.push_back(static_cast<double>(job.shuffle_bytes) * 1e-6);
  map_output_records_.push_back(static_cast<double>(job.map_output_records));
  straggler_.push_back(job.ReduceStragglerRatio());
  skew_.push_back(job.ReduceSkew());
  features_kept_.push_back(static_cast<double>(info.features_kept));
  duplication_.push_back(info.MeasuredDuplicationFactor());
  pairs_tested_.push_back(static_cast<double>(info.pairs_tested));
  examined_.push_back(info.FeatureExaminationRatio());
  early_stop_.push_back(
      info.reduce_groups == 0
          ? 0.0
          : static_cast<double>(info.early_terminations) /
                static_cast<double>(info.reduce_groups));
  cells_pruned_.push_back(
      info.signature_checks == 0
          ? 0.0
          : static_cast<double>(info.cells_pruned) /
                static_cast<double>(info.signature_checks));
}

void QueryLayers::Publish(Report& report) const {
  // Times as medians (robust to a stalled task), counts and ratios as
  // means (they add up across queries).
  report.SetLayer("mapreduce.map_ms", Quantile(map_ms_, 0.5));
  report.SetLayer("mapreduce.reduce_ms", Quantile(reduce_ms_, 0.5));
  report.SetLayer("mapreduce.driver_ms", Quantile(driver_ms_, 0.5));
  report.SetLayer("mapreduce.shuffle_mb", Mean(shuffle_mb_));
  report.SetLayer("mapreduce.map_output_records", Mean(map_output_records_));
  report.SetLayer("mapreduce.reduce_straggler_ratio", Mean(straggler_));
  report.SetLayer("mapreduce.reduce_skew", Mean(skew_));
  report.SetLayer("spq.map.features_kept", Mean(features_kept_));
  report.SetLayer("spq.map.duplication_factor", Mean(duplication_));
  report.SetLayer("spq.reduce.pairs_tested", Mean(pairs_tested_));
  report.SetLayer("spq.reduce.examined_ratio", Mean(examined_));
  report.SetLayer("spq.reduce.early_stop_ratio", Mean(early_stop_));
  report.SetLayer("spq.reduce.cells_pruned_ratio", Mean(cells_pruned_));
}

std::string CheckRunInfo(const spq::core::SpqRunInfo& info, bool cold_job,
                         uint64_t num_features) {
  const auto& job = info.job;
  uint64_t reduce_in = 0;
  for (uint64_t v : job.reduce_input_records) reduce_in += v;
  if (reduce_in != job.map_output_records) {
    return "reduce inputs sum to " + std::to_string(reduce_in) +
           ", map output is " + std::to_string(job.map_output_records);
  }
  if (info.features_examined > info.features_kept + info.feature_duplicates) {
    return "features_examined " + std::to_string(info.features_examined) +
           " > kept + duplicates " +
           std::to_string(info.features_kept + info.feature_duplicates);
  }
  if (cold_job && info.features_kept + info.features_pruned != num_features) {
    return "features_kept + features_pruned = " +
           std::to_string(info.features_kept + info.features_pruned) +
           ", |F| = " + std::to_string(num_features);
  }
  return "";
}

}  // namespace perfbench
