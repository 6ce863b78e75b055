#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <barrier>
#include <future>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>

#include <sys/resource.h>

#include "common/trace.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "dfs/mini_dfs.h"
#include "reference.h"
#include "spq/cell_store.h"
#include "spq/serving.h"

namespace perfbench {
namespace {

using spq::core::Algorithm;
using spq::core::Dataset;
using spq::core::SpqEngine;
using spq::core::SpqResult;

constexpr Algorithm kAlgorithms[] = {Algorithm::kPSPQ, Algorithm::kESPQLen,
                                     Algorithm::kESPQSco};

// Every dataset is generated from this fixed seed; --seed drives the query
// streams and the churn schedule. The placement of the clusters alone moved
// cold p50 by 12% between two dataset seeds, repeatably: more than the
// run-to-run noise a bound must leave room for (see README.md).
constexpr uint64_t kDatasetSeed = 2017;

// Grid of every engine: EngineOptions' default 50 x 50 over the unit square.
constexpr uint32_t kGrid = 50;
constexpr double kCellEdge = 1.0 / kGrid;

// Query radius of every stream: a tenth of a cell edge, the default of the
// repository's paper-figure benches (bench/figure_common.cc,
// bench_early_termination, bench_prefilter, bench_batch).
double QueryRadius() {
  return spq::datagen::RadiusFromCellFraction(0.10, 1.0, kGrid);
}

// ---- cold_clustered: the paper's CL dataset, one MapReduce job per query.
constexpr uint64_t kColdObjects = 200'000;  // half data, half features
// A round is kProbeEvery triples of stream queries (pSPQ, eSPQlen,
// eSPQsco), then the tie probe under each algorithm.
constexpr int kProbeEvery = 6;
// The tie probe: a fixed query on the fixed CL dataset whose reference
// answer has eleven objects tied at its 2nd-11th score. Every algorithm,
// cold and warm, drops object 21861 for 45211 (README.md, "Ties").
constexpr uint32_t kProbeKeywords[] = {135, 220, 356};

// ---- warm_flickr: Flickr-like, data-heavy, served from the store.
constexpr uint64_t kFlickrObjects = 400'000;  // 200k data objects
constexpr std::size_t kFlickrFeatures = 20'000;
// BuildStore max radius, as in bench_store.
constexpr double kStoreRadius = 0.5 * kCellEdge;
constexpr int kDoorCallers = 3;
// Share of the budget for phase A (one caller); the door gets the rest.
// Its throughput settles faster than phase A's p99, so A gets more.
constexpr double kSingleShare = 2.0 / 3;

// ---- churn_uniform: the paper's UN dataset under inserts and deletes.
constexpr uint64_t kChurnObjects = 200'000;  // 100k data objects
constexpr std::size_t kChurnFeatures = 10'000;
// One churn round: kBursts x (one update + 1 query), then one checkpoint
// of the unmutated store, its recovery (OpenStore + kFirstQueries queries
// in a fresh engine), and one checkpoint attempt of the churned store.
// Every round attempts the same operations. An update is a Delete of a
// live object and an Insert of a new one: one update per read is YCSB's
// update-heavy workload A (50% reads, 50% updates).
constexpr int kBursts = 24;
constexpr int kBurstSize = 2;
constexpr int kFirstQueries = 2;

// Answers compared with the reference, per checked stream.
constexpr std::size_t kSampleEvery = 25;
constexpr std::size_t kMaxSamples = 8;

// Share of a --trace 1 run spent traced; the rest runs untraced to give the
// baseline the tracing overhead is measured against.
constexpr double kTracedShare = 0.4;

uint64_t DerivedSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 of (seed, salt): independent streams per workload part.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// `count` queries of the spec's stream with pairwise distinct keyword
/// sets, so no query repeats within a run.
std::vector<spq::core::Query> DistinctQueries(spq::datagen::WorkloadSpec spec,
                                              std::size_t count) {
  std::vector<spq::core::Query> out;
  std::set<std::vector<uint32_t>> seen;
  for (int attempt = 0; attempt < 8 && out.size() < count; ++attempt) {
    for (auto& q : spq::datagen::MakeQueries(spec, 2 * count)) {
      if (out.size() == count) break;
      if (q.keywords.empty() || !seen.insert(q.keywords.ids()).second) continue;
      out.push_back(std::move(q));
    }
    spec.seed = DerivedSeed(spec.seed, attempt + 1);
  }
  return out;
}

/// Materializes every cell of the engine's store (first-touch Serve).
spq::Status ServeAllCells(const SpqEngine& engine) {
  auto snap = engine.snapshot();
  if (snap == nullptr) return spq::Status::FailedPrecondition("no store");
  for (uint32_t cell = 0; cell < snap->store->num_cells(); ++cell) {
    auto part = snap->store->Serve(cell);
    if (!part.ok()) return part.status();
  }
  return spq::Status::OK();
}

struct Sample {
  std::size_t query = 0;
  Algorithm algo = Algorithm::kESPQSco;
  std::vector<spq::core::ResultEntry> entries;
};

bool WantSample(std::size_t index, const std::vector<Sample>& samples) {
  return index % kSampleEvery == 0 && samples.size() < kMaxSamples;
}

/// Steal time and elapsed time of the timed phases.
class NoiseProbe {
 public:
  NoiseProbe() : steal0_(HostStealSeconds()), t0_(Now()) {}
  void Publish(Report& report, const std::vector<double>& latencies_ms) const {
    const double elapsed = Now() - t0_;
    const double steal = HostStealSeconds() - steal0_;
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    report.Diagnostic("host_steal_s", steal);
    report.Diagnostic("host_steal_share",
                      elapsed > 0 ? steal / (elapsed * cpus) : 0.0);
    report.Diagnostic("query_iqr_ms", Quantile(latencies_ms, 0.75) -
                                          Quantile(latencies_ms, 0.25));
    report.Diagnostic("queries_timed",
                      static_cast<double>(latencies_ms.size()));
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    report.Diagnostic("peak_rss_mb",
                      static_cast<double>(usage.ru_maxrss) / 1024);
    report.Diagnostic("workers", BenchWorkers());
  }

 private:
  double steal0_;
  double t0_;
};

/// Checks one answer against the reference ranking of its query. A wrong
/// answer is a mismatch; an answer that differs only in which tied objects
/// it kept is counted apart (README.md, "Ties"), unless the caller counts
/// it itself.
Verdict Judge(const std::vector<spq::core::ResultEntry>& entries,
              const std::vector<spq::core::ResultEntry>& ranking, uint32_t k,
              const std::string& what, Report& report,
              bool count_tie_order = true) {
  const Check check = CheckAnswer(entries, ranking, k);
  if (check.verdict == Verdict::kWrong) {
    report.Mismatch(what + " vs reference: " + check.detail);
  } else if (check.verdict == Verdict::kTieOrder && count_tie_order) {
    report.TieOrder(what + " vs reference: " + check.detail);
  }
  return check.verdict;
}

std::string Describe(const char* what, const Sample& s, Algorithm algo) {
  return std::string(what) + " query " + std::to_string(s.query) + " (" +
         spq::core::AlgorithmName(algo) + ")";
}

/// Checks each sampled answer against the reference, and so do the answers
/// `rerun` obtains for the same query on other paths (other algorithms,
/// the cold job); those must also agree with the sampled answer.
template <typename RerunFn>
void CheckSamples(const std::vector<Sample>& samples,
                  const std::vector<spq::core::DataObject>& data,
                  const std::vector<spq::core::FeatureObject>& features,
                  const std::vector<spq::core::Query>& queries,
                  const char* what, RerunFn&& rerun, Report& report) {
  for (const Sample& s : samples) {
    const spq::core::Query& query = queries[s.query];
    const auto ranking = ReferenceRanking(data, features, query);
    const Verdict base =
        Judge(s.entries, ranking, query.k, Describe(what, s, s.algo), report);
    rerun(s, [&](const std::string& path,
                 const spq::StatusOr<SpqResult>& r) {
      if (!r.ok()) {
        report.Mismatch(path + ": " + r.status().ToString());
        return;
      }
      const Verdict v = Judge(r->entries, ranking, query.k, path, report);
      if (v != Verdict::kWrong && base != Verdict::kWrong &&
          !CompareAnswers(r->entries, s.entries).empty()) {
        report.TieOrder(path + " vs " + Describe(what, s, s.algo) +
                        ": tied objects differ");
      }
    });
  }
}

/// No second path: only the reference check.
constexpr auto kNoRerun = [](const Sample&, const auto&) {};

/// One warm query's outcome checks: served warm, counters consistent.
bool WarmAnswerOk(const spq::StatusOr<SpqResult>& r, Report& report) {
  if (!r.ok()) {
    report.Note("query failed: " + r.status().ToString());
    return false;
  }
  if (!r->info.warm_path || r->info.cold_fallback) {
    report.Note("query fell back to the cold path");
    return false;
  }
  const std::string why = CheckRunInfo(r->info, /*cold_job=*/false, 0);
  if (!why.empty()) report.Mismatch("warm job counters: " + why);
  return true;
}

struct Setup {
  double ctor_s = 0.0;
  double build_s = 0.0;
  double materialize_s = 0.0;
};

/// Constructs an engine over `dataset`, builds its store and materializes
/// every cell, timing each step.
spq::Status BuildServingEngine(const Dataset& dataset,
                               std::unique_ptr<SpqEngine>& engine,
                               Setup& setup) {
  double t = Now();
  engine = std::make_unique<SpqEngine>(dataset, BenchEngineOptions());
  setup.ctor_s = Now() - t;
  t = Now();
  SPQ_RETURN_NOT_OK(engine->BuildStore(kStoreRadius));
  setup.build_s = Now() - t;
  t = Now();
  SPQ_RETURN_NOT_OK(ServeAllCells(*engine));
  setup.materialize_s = Now() - t;
  return spq::Status::OK();
}

void PublishSetup(const Setup& setup, Report& report) {
  report.SetEndToEnd("setup_s",
                     setup.ctor_s + setup.build_s + setup.materialize_s);
  report.SetLayer("cell_store.ctor_s", setup.ctor_s);
  report.SetLayer("cell_store.build_s", setup.build_s);
  report.SetLayer("cell_store.materialize_s", setup.materialize_s);
}

// ============================================================ cold_clustered

int RunColdClustered(const Options& opt, Report& report) {
  spq::datagen::ClusteredSpec spec;
  spec.num_objects = kColdObjects;
  spec.seed = kDatasetSeed;
  auto dataset_or = spq::datagen::MakeClusteredDataset(spec);
  if (!dataset_or.ok()) {
    report.Note(dataset_or.status().ToString());
    return 1;
  }
  const Dataset dataset = *std::move(dataset_or);

  spq::datagen::WorkloadSpec ws;
  ws.num_keywords = 3;
  ws.radius = QueryRadius();
  ws.k = 10;
  ws.vocab_size = spec.vocab_size;
  ws.seed = DerivedSeed(opt.seed, 2);
  const auto queries = DistinctQueries(ws, 6000);

  Progress("inputs generated");
  const double t0 = Now();
  const SpqEngine engine(dataset, BenchEngineOptions());
  const double ctor_s = Now() - t0;
  report.SetEndToEnd("setup_s", ctor_s);
  report.SetLayer("cell_store.ctor_s", ctor_s);

  spq::core::Query probe;
  probe.k = ws.k;
  probe.radius = ws.radius;
  probe.keywords = spq::text::KeywordSet(std::vector<uint32_t>(
      std::begin(kProbeKeywords), std::end(kProbeKeywords)));
  const auto probe_ranking =
      ReferenceRanking(dataset.data, dataset.features, probe);

  std::size_t next = 0;
  uint64_t jobs = 0;  // Execute calls, probes included
  std::vector<Sample> samples;
  QueryLayers layers;
  const uint64_t num_features = dataset.features.size();
  auto execute = [&](const spq::core::Query& query, Algorithm algo)
      -> std::optional<SpqResult> {
    auto r = engine.Execute(query, algo);
    if (!r.ok()) {
      report.Note("Execute failed: " + r.status().ToString());
      return std::nullopt;
    }
    const std::string why = CheckRunInfo(r->info, true, num_features);
    if (!why.empty()) report.Mismatch("cold job counters: " + why);
    return *std::move(r);
  };
  // Whole rounds until the budget is spent: kProbeEvery timed triples of
  // stream queries, then the untimed tie probe under each algorithm. A
  // probe answer other than the reference counts as a failed operation
  // (only a tie-order difference is expected; anything else is a
  // mismatch too), so every round fails the same number of operations
  // while the fault lasts.
  auto run = [&](double budget, std::vector<double>& lat, TraceWindow* tw) {
    const double start = Now();
    while (Now() - start < budget &&
           next + 3 * kProbeEvery <= queries.size()) {
      for (int triple = 0; triple < kProbeEvery; ++triple) {
        for (Algorithm algo : kAlgorithms) {
          const std::size_t i = next++;
          const double t = Now();
          auto r = execute(queries[i], algo);
          const double ms = (Now() - t) * 1e3;
          if (tw != nullptr) tw->Drain();
          ++jobs;
          report.Attempt(r.has_value());
          if (!r) continue;
          lat.push_back(ms);
          if (tw == nullptr) layers.Add(r->info);
          if (WantSample(i, samples)) samples.push_back({i, algo, r->entries});
        }
      }
      for (Algorithm algo : kAlgorithms) {
        auto r = execute(probe, algo);
        if (tw != nullptr) tw->Drain();
        ++jobs;
        const bool ok =
            r.has_value() &&
            Judge(r->entries, probe_ranking, probe.k,
                  std::string("tie probe (") + spq::core::AlgorithmName(algo) +
                      ")",
                  report, /*count_tie_order=*/false) == Verdict::kMatch;
        report.Attempt(ok);
      }
    }
  };

  std::vector<double> lat;
  Progress("set-up done");
  const NoiseProbe noise;
  if (!opt.trace) {
    run(opt.seconds, lat, nullptr);
    report.SetEndToEnd("query_p50_ms", Quantile(lat, 0.5));
    report.SetEndToEnd("query_tail_ms", Quantile(lat, 0.9));
    double busy_ms = 0.0;
    for (double ms : lat) busy_ms += ms;
    report.SetEndToEnd("throughput_per_s",
                       busy_ms > 0 ? lat.size() / (busy_ms * 1e-3) : 0.0);
  } else {
    run(opt.seconds * (1 - kTracedShare), lat, nullptr);
    std::vector<double> traced;
    {
      TraceWindow tw;
      jobs = 0;
      run(opt.seconds * kTracedShare, traced, &tw);
      tw.Publish(report, jobs);
    }
    report.SetLayer("trace.overhead_ms",
                    Quantile(traced, 0.5) - Quantile(lat, 0.5));
  }
  Progress("timed phases done");
  noise.Publish(report, lat);
  layers.Publish(report);

  // Every algorithm's cold job answers like the reference.
  CheckSamples(
      samples, dataset.data, dataset.features, queries, "cold",
      [&](const Sample& s, const auto& judge) {
        for (Algorithm other : kAlgorithms) {
          if (other == s.algo) continue;
          judge(Describe("cold", s, other),
                engine.Execute(queries[s.query], other));
        }
      },
      report);
  return 0;
}

// =============================================================== warm_flickr

struct DoorRun {
  std::vector<double> lat_ms;
  double wall_s = 0.0;
};

/// kDoorCallers closed-loop callers through one front door until the
/// budget is spent, one thread each. The callers meet at a barrier after
/// every query, so a run holds whole rounds of kDoorCallers queries. When
/// traced, the span rings are drained at the barrier, where no query is in
/// flight once the executor has closed the span of every batch it served.
DoorRun RunDoor(spq::core::SpqFrontDoor& door,
                const std::vector<spq::core::Query>& queries,
                std::atomic<std::size_t>& next, double budget,
                std::vector<Sample>& samples, Report& report,
                TraceWindow* tw) {
  DoorRun out;
  std::mutex mu;  // guards out.lat_ms, samples and report
  const double start = Now();
  uint64_t batches = door.stats().batches;
  bool stop = next.load() + kDoorCallers > queries.size();
  // Runs on one caller while the others wait at the barrier.
  auto end_of_round = [&]() noexcept {
    if (tw != nullptr) {
      const uint64_t now = door.stats().batches;
      tw->Drain("door.serve_batch", now - batches);
      batches = now;
    }
    stop = Now() - start >= budget ||
           next.load() + kDoorCallers > queries.size();
  };
  std::barrier sync(kDoorCallers, end_of_round);
  std::vector<std::thread> callers;
  for (int c = 0; c < kDoorCallers; ++c) {
    callers.emplace_back([&] {
      while (!stop) {
        const std::size_t i = next.fetch_add(1);
        const double t = Now();
        auto r = door.Query(queries[i], Algorithm::kESPQSco);
        const double ms = (Now() - t) * 1e3;
        {
          std::lock_guard<std::mutex> lock(mu);
          const bool ok = WarmAnswerOk(r, report);
          report.Attempt(ok);
          if (ok) {
            out.lat_ms.push_back(ms);
            if (WantSample(i, samples)) {
              samples.push_back({i, Algorithm::kESPQSco, r->entries});
            }
          }
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (auto& t : callers) t.join();
  out.wall_s = Now() - start;
  return out;
}

/// Mean of a registry histogram's values recorded between two snapshots.
double HistogramDeltaMean(const spq::metrics::RegistrySnapshot& before,
                          const spq::metrics::RegistrySnapshot& after,
                          const std::vector<std::string>& names) {
  double sum = 0.0;
  double count = 0.0;
  for (const std::string& name : names) {
    const auto a = after.HistogramValue(name);
    const auto b = before.HistogramValue(name);
    sum += static_cast<double>(a.sum - b.sum);
    count += static_cast<double>(a.count - b.count);
  }
  return count > 0 ? sum / count : 0.0;
}

int RunWarmFlickr(const Options& opt, Report& report) {
  const auto spec =
      spq::datagen::FlickrLikeSpec(kFlickrObjects, kDatasetSeed);
  auto dataset_or = spq::datagen::MakeRealLikeDataset(spec);
  if (!dataset_or.ok()) {
    report.Note(dataset_or.status().ToString());
    return 1;
  }
  Dataset dataset = *std::move(dataset_or);
  dataset.features.resize(std::min(dataset.features.size(), kFlickrFeatures));

  spq::datagen::WorkloadSpec ws;
  ws.num_keywords = 3;
  ws.radius = QueryRadius();
  ws.k = 10;
  ws.vocab_size = spec.vocab_size;
  ws.term_zipf = spec.term_zipf;
  ws.seed = DerivedSeed(opt.seed, 12);
  const auto queries = DistinctQueries(ws, 40'000);

  Progress("inputs generated");
  std::unique_ptr<SpqEngine> engine;
  Setup setup;
  if (auto st = BuildServingEngine(dataset, engine, setup); !st.ok()) {
    report.Note("set-up failed: " + st.ToString());
    return 1;
  }
  PublishSetup(setup, report);

  std::atomic<std::size_t> next{0};
  std::vector<Sample> samples;
  QueryLayers layers;
  // Phase A: one caller, eSPQsco Query calls.
  auto run_single = [&](double budget, std::vector<double>& lat,
                        TraceWindow* tw) {
    const double start = Now();
    while (Now() - start < budget && next.load() < queries.size()) {
      const std::size_t i = next.fetch_add(1);
      const double t = Now();
      auto r = engine->Query(queries[i], Algorithm::kESPQSco);
      const double ms = (Now() - t) * 1e3;
      if (tw != nullptr) tw->Drain();
      const bool ok = WarmAnswerOk(r, report);
      report.Attempt(ok);
      if (!ok) continue;
      lat.push_back(ms);
      if (tw == nullptr) layers.Add(r->info);
      if (WantSample(i, samples)) {
        samples.push_back({i, Algorithm::kESPQSco, r->entries});
      }
    }
  };

  std::vector<double> lat;
  std::vector<Sample> door_samples;
  std::atomic<std::size_t> door_next{queries.size() / 2};
  Progress("set-up done");
  const NoiseProbe noise;
  spq::core::SpqFrontDoor door(*engine);
  // Untraced phases A and B: the whole budget, or its untraced share.
  const double untraced = opt.seconds * (opt.trace ? 1 - kTracedShare : 1.0);
  run_single(untraced * kSingleShare, lat, nullptr);
  const auto before = engine->MetricsSnapshot();
  const spq::core::ServingStats stats_before = door.stats();
  const DoorRun d = RunDoor(door, queries, door_next,
                            untraced * (1 - kSingleShare), door_samples,
                            report, nullptr);
  const auto after = engine->MetricsSnapshot();
  const spq::core::ServingStats stats_after = door.stats();
  report.SetEndToEnd("query_p50_ms", Quantile(lat, 0.5));
  report.SetEndToEnd("query_tail_ms", Quantile(lat, 0.99));
  report.SetEndToEnd("throughput_per_s", d.lat_ms.size() / d.wall_s);
  report.SetLayer("serving.door_p99_ms", Quantile(d.lat_ms, 0.99));
  report.SetLayer(
      "serving.queue_wait_ms",
      HistogramDeltaMean(before, after, {"spq.serving.queue_wait_ns"}) * 1e-6);
  report.SetLayer("serving.batch_job_ms",
                  HistogramDeltaMean(
                      before, after,
                      {"spq.query.warm_ns", "spq.query.warm_batch_ns"}) *
                      1e-6);
  double batched = 0.0;
  double batches = 0.0;
  for (std::size_t s = 1; s < stats_after.batch_size_hist.size(); ++s) {
    const auto n = static_cast<double>(stats_after.batch_size_hist[s] -
                                       stats_before.batch_size_hist[s]);
    batched += static_cast<double>(s) * n;
    batches += n;
  }
  report.SetLayer("serving.batch_size", batches > 0 ? batched / batches : 0.0);
  if (opt.trace) {
    const double traced_budget = opt.seconds * kTracedShare;
    std::vector<double> traced;
    {
      TraceWindow tw;
      run_single(traced_budget * kSingleShare, traced, &tw);
      const DoorRun td =
          RunDoor(door, queries, door_next, traced_budget * (1 - kSingleShare),
                  door_samples, report, &tw);
      tw.Publish(report, traced.size() + td.lat_ms.size());
    }
    report.SetLayer("trace.overhead_ms",
                    Quantile(traced, 0.5) - Quantile(lat, 0.5));
  }
  door.Shutdown();
  Progress("timed phases done");
  noise.Publish(report, lat);
  layers.Publish(report);

  // Warm answers match the reference, the other algorithms' warm answers
  // and the cold Execute answer; door answers match the reference.
  CheckSamples(
      samples, dataset.data, dataset.features, queries, "warm",
      [&](const Sample& s, const auto& judge) {
        for (Algorithm other : kAlgorithms) {
          if (other == s.algo) continue;
          judge(Describe("warm", s, other),
                engine->Query(queries[s.query], other));
        }
        judge(Describe("cold Execute", s, s.algo),
              engine->Execute(queries[s.query], s.algo));
      },
      report);
  CheckSamples(door_samples, dataset.data, dataset.features, queries, "door",
               kNoRerun, report);
  return 0;
}

// ============================================================= churn_uniform

/// The benchmark's own copy of the churned store's logical dataset.
class LiveSet {
 public:
  explicit LiveSet(const std::vector<spq::core::DataObject>& data)
      : live_(data) {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      where_[live_[i].id] = i;
      next_id_ = std::max(next_id_, live_[i].id + 1);
    }
  }
  const std::vector<spq::core::DataObject>& objects() const { return live_; }
  spq::core::ObjectId Pick(std::mt19937_64& rng) const {
    return live_[rng() % live_.size()].id;
  }
  void Erase(spq::core::ObjectId id) {
    const std::size_t i = where_.at(id);
    where_.erase(id);
    if (i + 1 != live_.size()) {
      live_[i] = live_.back();
      where_[live_[i].id] = i;
    }
    live_.pop_back();
  }
  spq::core::DataObject Fresh(std::mt19937_64& rng) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    spq::core::DataObject p;
    p.id = next_id_++;
    p.pos.x = unit(rng);
    p.pos.y = unit(rng);
    return p;
  }
  void Add(const spq::core::DataObject& p) {
    where_[p.id] = live_.size();
    live_.push_back(p);
  }

 private:
  std::vector<spq::core::DataObject> live_;
  std::unordered_map<spq::core::ObjectId, std::size_t> where_;
  spq::core::ObjectId next_id_ = 0;
};

int RunChurnUniform(const Options& opt, Report& report) {
  spq::datagen::UniformSpec spec;
  spec.num_objects = kChurnObjects;
  spec.seed = kDatasetSeed;
  auto dataset_or = spq::datagen::MakeUniformDataset(spec);
  if (!dataset_or.ok()) {
    report.Note(dataset_or.status().ToString());
    return 1;
  }
  Dataset dataset = *std::move(dataset_or);
  dataset.features.resize(std::min(dataset.features.size(), kChurnFeatures));

  spq::datagen::WorkloadSpec ws;
  ws.num_keywords = 3;
  ws.radius = QueryRadius();
  ws.k = 10;
  ws.vocab_size = spec.vocab_size;
  ws.seed = DerivedSeed(opt.seed, 22);
  const auto queries = DistinctQueries(ws, 40'000);

  // The churned engine; its set-up is the run's setup_s.
  Progress("inputs generated");
  std::unique_ptr<SpqEngine> engine;
  Setup setup;
  if (auto st = BuildServingEngine(dataset, engine, setup); !st.ok()) {
    report.Note("set-up failed: " + st.ToString());
    return 1;
  }
  PublishSetup(setup, report);
  // A second engine over the same dataset keeps an unmutated store, the
  // one a checkpoint can persist today (cell_store.h invariant M5).
  std::unique_ptr<SpqEngine> clean;
  Setup clean_setup;
  if (auto st = BuildServingEngine(dataset, clean, clean_setup); !st.ok()) {
    report.Note("set-up failed: " + st.ToString());
    return 1;
  }

  LiveSet live(dataset.data);
  std::mt19937_64 rng(DerivedSeed(opt.seed, 23));
  std::size_t next = 0;
  std::vector<double> insert_us, delete_us, checkpoint_ms, open_ms,
      recovery_ms, cells_restored;
  double mutation_s = 0.0;
  uint64_t mutations = 0;
  double checkpoint_mb = 0.0;
  std::vector<Sample> recovered;  // answers of recovered stores
  QueryLayers layers;
  spq::dfs::DfsOptions dfs_options;
  spq::dfs::MiniDfs refused_dfs(dfs_options);

  auto round = [&](std::vector<double>& lat, TraceWindow* tw) {
    // Bursts of Insert/Delete, each followed by one query.
    for (int b = 0; b < kBursts; ++b) {
      for (int m = 0; m < kBurstSize; ++m) {
        if (m % 2 == 0) {
          const spq::core::ObjectId id = live.Pick(rng);
          const double t = Now();
          const spq::Status st = engine->Delete(id);
          const double dt = Now() - t;
          report.Attempt(st.ok());
          if (!st.ok()) {
            report.Note("Delete failed: " + st.ToString());
            continue;
          }
          live.Erase(id);
          delete_us.push_back(dt * 1e6);
          mutation_s += dt;
        } else {
          const spq::core::DataObject p = live.Fresh(rng);
          const double t = Now();
          const spq::Status st = engine->Insert(p);
          const double dt = Now() - t;
          report.Attempt(st.ok());
          if (!st.ok()) {
            report.Note("Insert failed: " + st.ToString());
            continue;
          }
          live.Add(p);
          insert_us.push_back(dt * 1e6);
          mutation_s += dt;
        }
        ++mutations;
      }
      const std::size_t i = next++;
      const double t = Now();
      auto r = engine->Query(queries[i], Algorithm::kESPQSco);
      const double ms = (Now() - t) * 1e3;
      if (tw != nullptr) tw->Drain();
      const bool ok = WarmAnswerOk(r, report);
      report.Attempt(ok);
      if (!ok) continue;
      lat.push_back(ms);
      if (tw == nullptr) layers.Add(r->info);
    }

    // Checkpoint of the unmutated store into a fresh DFS.
    spq::dfs::MiniDfs dfs(dfs_options);
    double t = Now();
    auto epoch = clean->CheckpointStore(dfs, "store");
    checkpoint_ms.push_back((Now() - t) * 1e3);
    if (tw != nullptr) tw->Drain();
    report.Attempt(epoch.ok());
    if (!epoch.ok()) {
      report.Note("CheckpointStore failed: " + epoch.status().ToString());
    } else if (checkpoint_mb == 0.0) {
      for (const std::string& f : dfs.ListFiles()) {
        auto meta = dfs.GetMetadata(f);
        if (meta.ok()) checkpoint_mb += static_cast<double>(meta->size) * 1e-6;
      }
    }

    // Its recovery: OpenStore in a fresh engine, then the first queries.
    SpqEngine fresh(dataset, BenchEngineOptions());
    t = Now();
    const spq::Status opened = fresh.OpenStore(dfs, "store");
    const double open_s = Now() - t;
    report.Attempt(opened.ok());
    if (!opened.ok()) report.Note("OpenStore failed: " + opened.ToString());
    for (int q = 0; q < kFirstQueries; ++q) {
      const std::size_t i = next++;
      auto r = opened.ok() ? fresh.Query(queries[i], Algorithm::kESPQSco)
                           : spq::StatusOr<SpqResult>(opened);
      const bool ok = WarmAnswerOk(r, report);
      report.Attempt(ok);
      if (ok && q == 0 && recovered.size() < kMaxSamples) {
        recovered.push_back({i, Algorithm::kESPQSco, r->entries});
      }
    }
    const double recover_s = Now() - t;
    if (tw != nullptr) tw->Drain();
    if (opened.ok()) {
      open_ms.push_back(open_s * 1e3);
      recovery_ms.push_back(recover_s * 1e3);
      cells_restored.push_back(
          static_cast<double>(fresh.store()->cells_restored()));
    }

    // The churned store cannot be made durable: a store that has taken
    // Insert/Delete refuses CheckpointStore (cell_store.h invariant M5).
    // The attempt stays in every round, counted failed while it fails.
    auto refused = engine->CheckpointStore(refused_dfs, "churned");
    if (tw != nullptr) tw->Drain();
    report.Attempt(refused.ok());
    if (!refused.ok() && !refused.status().IsFailedPrecondition()) {
      report.Note("churned CheckpointStore: " + refused.status().ToString());
    }
  };
  const std::size_t per_round = kBursts + kFirstQueries;

  std::vector<double> lat;
  Progress("set-up done");
  const NoiseProbe noise;
  auto run = [&](double budget, std::vector<double>& into, TraceWindow* tw) {
    const double start = Now();
    while (Now() - start < budget && next + per_round <= queries.size()) {
      round(into, tw);
    }
  };
  if (!opt.trace) {
    run(opt.seconds, lat, nullptr);
    report.SetEndToEnd("query_p50_ms", Quantile(lat, 0.5));
    report.SetEndToEnd("query_tail_ms", Quantile(lat, 0.99));
    report.SetEndToEnd("throughput_per_s",
                       mutation_s > 0 ? mutations / mutation_s : 0.0);
  } else {
    run(opt.seconds * (1 - kTracedShare), lat, nullptr);
    std::vector<double> traced;
    {
      TraceWindow tw;
      run(opt.seconds * kTracedShare, traced, &tw);
      // Normalized per query the traced rounds issued (churn queries and
      // recovery first queries).
      tw.Publish(report, traced.size() / kBursts * per_round);
    }
    report.SetLayer("trace.overhead_ms",
                    Quantile(traced, 0.5) - Quantile(lat, 0.5));
  }
  Progress("timed phases done");
  noise.Publish(report, lat);
  layers.Publish(report);
  report.SetLayer("cell_store.insert_us", Quantile(insert_us, 0.5));
  report.SetLayer("cell_store.delete_us", Quantile(delete_us, 0.5));
  report.SetLayer("cell_store.cells_compacted",
                  static_cast<double>(engine->store()->cells_compacted()));
  report.SetLayer("cell_store.checkpoint_ms", Quantile(checkpoint_ms, 0.5));
  report.SetLayer("cell_store.checkpoint_mb", checkpoint_mb);
  report.SetLayer("cell_store.open_ms", Quantile(open_ms, 0.5));
  report.SetLayer("cell_store.recovery_ms", Quantile(recovery_ms, 0.5));
  report.SetLayer("cell_store.cells_restored", Quantile(cells_restored, 0.5));

  // Recovered stores answer like the reference over the build dataset.
  CheckSamples(recovered, dataset.data, dataset.features, queries,
               "recovered", kNoRerun, report);
  // After churn, every algorithm answers like the reference over the
  // benchmark's own copy of the logical dataset.
  std::vector<Sample> churned;
  for (std::size_t c = 0; c < kMaxSamples / 2 && next < queries.size(); ++c) {
    const std::size_t i = next++;
    auto r = engine->Query(queries[i], Algorithm::kESPQSco);
    if (!r.ok()) {
      report.Mismatch("churned Query: " + r.status().ToString());
      continue;
    }
    churned.push_back({i, Algorithm::kESPQSco, r->entries});
  }
  CheckSamples(
      churned, live.objects(), dataset.features, queries, "churned",
      [&](const Sample& s, const auto& judge) {
        for (Algorithm other : kAlgorithms) {
          if (other == s.algo) continue;
          judge(Describe("churned", s, other),
                engine->Query(queries[s.query], other));
        }
      },
      report);
  return 0;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"cold_clustered", &RunColdClustered},
      {"warm_flickr", &RunWarmFlickr},
      {"churn_uniform", &RunChurnUniform},
  };
  return workloads;
}

}  // namespace perfbench
