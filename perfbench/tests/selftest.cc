// Self-test of the benchmark's checker: the reference scorer answers a
// hand-computed example, agrees with the engine on a small generated
// dataset, CompareAnswers rejects perturbed answers (one id swapped, one
// score changed), CheckAnswer tells a tie-order difference from a wrong
// answer, and span folding computes self times. Exits 0 when every check
// holds.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/workload.h"
#include "reference.h"
#include "spq/engine.h"
#include "trace_fold.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

using perfbench::CheckAnswer;
using perfbench::CompareAnswers;
using perfbench::ReferenceRanking;
using perfbench::Verdict;
using spq::core::ResultEntry;

void HandComputedExample() {
  // Two data objects, three features; r = 1.
  std::vector<spq::core::DataObject> data = {{1, {0.0, 0.0}}, {2, {5.0, 0.0}}};
  std::vector<spq::core::FeatureObject> features = {
      {10, {0.5, 0.0}, spq::text::KeywordSet({1, 2})},     // J = 1/4, d = 0.5
      {11, {5.0, 1.0}, spq::text::KeywordSet({1, 2, 3})},  // J = 2/4, d = 1
      {12, {0.0, 2.0}, spq::text::KeywordSet({1, 3})},     // d = 2 from 1
  };
  spq::core::Query q;
  q.k = 5;
  q.radius = 1.0;
  q.keywords = spq::text::KeywordSet({1, 3, 4});
  const auto got = ReferenceRanking(data, features, q);
  const std::vector<ResultEntry> want = {{2, 2.0 / 4.0}, {1, 1.0 / 4.0}};
  Expect(CompareAnswers(got, want).empty(),
         "hand example: " + CompareAnswers(got, want));
}

void PerturbedAnswersRejected() {
  const std::vector<ResultEntry> good = {{7, 0.5}, {3, 0.25}, {9, 0.25}};
  Expect(CompareAnswers(good, good).empty(), "identical answers accepted");

  auto swapped = good;
  swapped[1].id = 4;  // one id swapped for another object
  Expect(!CompareAnswers(swapped, good).empty(), "swapped id rejected");

  auto reordered = good;
  std::swap(reordered[1].id, reordered[2].id);  // tie order broken
  Expect(!CompareAnswers(reordered, good).empty(), "tie order rejected");

  auto rescored = good;
  rescored[0].score = std::nextafter(0.5, 1.0);  // one score changed by 1 ulp
  Expect(!CompareAnswers(rescored, good).empty(), "changed score rejected");

  auto shorter = good;
  shorter.pop_back();
  Expect(!CompareAnswers(shorter, good).empty(), "missing entry rejected");
}

void TieAwareVerdicts() {
  // Full ranking: three objects tied at 0.25 straddle the k = 2 boundary.
  const std::vector<ResultEntry> ranking = {
      {7, 0.5}, {3, 0.25}, {9, 0.25}, {12, 0.25}, {2, 0.1}};
  const std::vector<ResultEntry> want = {{7, 0.5}, {3, 0.25}};
  Expect(CheckAnswer(want, ranking, 2).verdict == Verdict::kMatch,
         "reference answer matches");
  Expect(CheckAnswer({{7, 0.5}, {9, 0.25}}, ranking, 2).verdict ==
             Verdict::kTieOrder,
         "other tied object at the k-th score is a tie-order difference");
  Expect(CheckAnswer({{7, 0.5}, {2, 0.25}}, ranking, 2).verdict ==
             Verdict::kWrong,
         "object whose true score differs is wrong");
  Expect(CheckAnswer({{3, 0.5}, {7, 0.25}}, ranking, 2).verdict ==
             Verdict::kWrong,
         "swapped ids are wrong");
  Expect(CheckAnswer({{7, std::nextafter(0.5, 1.0)}, {3, 0.25}}, ranking, 2)
                 .verdict == Verdict::kWrong,
         "changed score is wrong");
  Expect(CheckAnswer({{7, 0.5}, {12, 0.25}, {9, 0.25}}, ranking, 3).verdict ==
             Verdict::kWrong,
         "tied objects out of id order are wrong");
  Expect(CheckAnswer({{7, 0.5}}, ranking, 2).verdict == Verdict::kWrong,
         "short answer is wrong");
}

void AgreesWithEngine() {
  spq::datagen::UniformSpec spec;
  spec.num_objects = 4'000;
  spec.seed = 7;
  auto dataset = spq::datagen::MakeUniformDataset(spec);
  Expect(dataset.ok(), "dataset generated");
  if (!dataset.ok()) return;
  spq::core::EngineOptions options;
  options.num_workers = 2;
  spq::core::SpqEngine engine(*dataset, options);
  spq::datagen::WorkloadSpec ws;
  ws.radius = 0.015;
  ws.seed = 11;
  for (const auto& q : spq::datagen::MakeQueries(ws, 6)) {
    const auto ranking = ReferenceRanking(dataset->data, dataset->features, q);
    Expect(!ranking.empty(), "reference answer is not empty");
    auto got = engine.Execute(q, spq::core::Algorithm::kESPQSco);
    Expect(got.ok(), "engine Execute");
    if (!got.ok()) continue;
    const auto check = CheckAnswer(got->entries, ranking, q.k);
    Expect(check.verdict == Verdict::kMatch, "engine vs reference: " + check.detail);
    // The checker must notice a corrupted copy of a correct answer.
    auto bad = got->entries;
    if (!bad.empty()) {
      bad.back().score = std::nextafter(bad.back().score, 0.0);
      Expect(CheckAnswer(bad, ranking, q.k).verdict == Verdict::kWrong,
             "perturbed engine answer");
    }
  }
}

void SelfTimeFolding() {
  using spq::trace::SpanEvent;
  // Thread 0: a [0,100) contains b [10,40) which contains c [20,30);
  // d [50,60) is a second child of a. Thread 1: e [15,45) has no parent.
  const std::vector<SpanEvent> events = {
      {"a", 0, 0, 100}, {"b", 0, 10, 30}, {"c", 0, 20, 10},
      {"d", 0, 50, 10}, {"e", 1, 15, 30},
  };
  perfbench::SpanTotals totals;
  perfbench::FoldSpans(events, totals);
  Expect(totals.self_ns["a"] == 60, "self time of a");
  Expect(totals.self_ns["b"] == 20, "self time of b");
  Expect(totals.self_ns["c"] == 10, "self time of c");
  Expect(totals.self_ns["d"] == 10, "self time of d");
  Expect(totals.self_ns["e"] == 30, "self time of e (other thread)");
}

}  // namespace

int main() {
  HandComputedExample();
  PerturbedAnswersRejected();
  TieAwareVerdicts();
  AgreesWithEngine();
  SelfTimeFolding();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
