#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// The benchmark's own scorer, written apart from the engine: it reads the
// plain dataset and query structs and nothing else of the program (no
// Jaccard, distance, grid or top-k code of src/ is used), so a fault the
// engine shares across its algorithms cannot hide from it.
//
// Semantics, from the paper: τ(p) is the largest Jaccard similarity
// |f.W ∩ q.W| / |f.W ∪ q.W| over the features f within distance r of p
// (dist ≤ r, tested as dx² + dy² ≤ r²); the answer is the k data objects
// of largest positive τ, ordered by score descending, then id ascending.

#include <cstdint>
#include <string>
#include <vector>

#include "spq/types.h"

namespace perfbench {

using spq::core::DataObject;
using spq::core::FeatureObject;
using spq::core::Query;
using spq::core::ResultEntry;

/// Every data object of positive τ, ranked by score descending, then id
/// ascending. Its first k entries are the reference answer of a top-k
/// query.
std::vector<ResultEntry> ReferenceRanking(
    const std::vector<DataObject>& data,
    const std::vector<FeatureObject>& features, const Query& query);

/// Compares an answer with the expected one: same length, same ids in the
/// same order, bit-equal scores. Returns "" when they match, otherwise a
/// one-line description of the first difference.
std::string CompareAnswers(const std::vector<ResultEntry>& got,
                           const std::vector<ResultEntry>& want);

/// Outcome of checking an answer against the reference ranking.
enum class Verdict {
  kMatch,     ///< equal to the reference top-k
  /// A valid top-k by score that differs from the reference only in which
  /// objects tied at the k-th score were kept: same score sequence, every
  /// entry's score is its true τ, ids distinct, ordered by score then id.
  kTieOrder,
  kWrong,     ///< anything else
};

struct Check {
  Verdict verdict = Verdict::kMatch;
  std::string detail;  ///< first difference, "" on kMatch
};

/// Checks `got` against `ranking` (ReferenceRanking of the same query) for
/// a top-`k` answer.
Check CheckAnswer(const std::vector<ResultEntry>& got,
                  const std::vector<ResultEntry>& ranking, uint32_t k);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
