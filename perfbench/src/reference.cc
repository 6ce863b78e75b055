#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {
namespace {

// |a ∩ b| of two sorted, duplicate-free id lists (a plain merge).
std::size_t CommonTerms(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

// Uniform bucket grid over the data objects, compressed rows: the ids of
// the data objects in bucket b are rows[start[b] .. start[b + 1]).
struct BucketGrid {
  double min_x = 0.0;
  double min_y = 0.0;
  double side = 1.0;
  int64_t nx = 1;
  int64_t ny = 1;
  std::vector<uint32_t> start;
  std::vector<uint32_t> rows;

  int64_t ColOf(double x) const {
    return std::clamp<int64_t>(
        static_cast<int64_t>(std::floor((x - min_x) / side)), 0, nx - 1);
  }
  int64_t RowOf(double y) const {
    return std::clamp<int64_t>(
        static_cast<int64_t>(std::floor((y - min_y) / side)), 0, ny - 1);
  }
};

BucketGrid MakeGrid(const std::vector<DataObject>& data, double radius) {
  BucketGrid grid;
  if (data.empty()) {
    grid.start.assign(2, 0);
    return grid;
  }
  double max_x = data[0].pos.x;
  double max_y = data[0].pos.y;
  grid.min_x = max_x;
  grid.min_y = max_y;
  for (const DataObject& p : data) {
    grid.min_x = std::min(grid.min_x, p.pos.x);
    grid.min_y = std::min(grid.min_y, p.pos.y);
    max_x = std::max(max_x, p.pos.x);
    max_y = std::max(max_y, p.pos.y);
  }
  const double extent = std::max({max_x - grid.min_x, max_y - grid.min_y,
                                  1e-12});
  constexpr int64_t kMaxSide = 1024;
  grid.side = std::max(radius, extent / kMaxSide);
  grid.nx = std::min<int64_t>(
      kMaxSide, static_cast<int64_t>((max_x - grid.min_x) / grid.side) + 1);
  grid.ny = std::min<int64_t>(
      kMaxSide, static_cast<int64_t>((max_y - grid.min_y) / grid.side) + 1);
  std::vector<uint32_t> bucket_of(data.size());
  grid.start.assign(static_cast<std::size_t>(grid.nx * grid.ny) + 1, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const int64_t b =
        grid.RowOf(data[i].pos.y) * grid.nx + grid.ColOf(data[i].pos.x);
    bucket_of[i] = static_cast<uint32_t>(b);
    ++grid.start[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t b = 1; b < grid.start.size(); ++b) {
    grid.start[b] += grid.start[b - 1];
  }
  grid.rows.resize(data.size());
  std::vector<uint32_t> fill(grid.start.begin(), grid.start.end() - 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    grid.rows[fill[bucket_of[i]]++] = static_cast<uint32_t>(i);
  }
  return grid;
}

bool Better(const ResultEntry& a, const ResultEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

}  // namespace

std::vector<ResultEntry> ReferenceRanking(
    const std::vector<DataObject>& data,
    const std::vector<FeatureObject>& features, const Query& query) {
  const std::vector<uint32_t>& q = query.keywords.ids();
  const double r = query.radius;
  const double r2 = r * r;
  const BucketGrid grid = MakeGrid(data, r);
  std::vector<double> tau(data.size(), 0.0);
  for (const FeatureObject& f : features) {
    const std::vector<uint32_t>& w = f.keywords.ids();
    const std::size_t common = CommonTerms(w, q);
    if (common == 0) continue;
    const double score = static_cast<double>(common) /
                         static_cast<double>(w.size() + q.size() - common);
    const int64_t c0 = grid.ColOf(f.pos.x - r);
    const int64_t c1 = grid.ColOf(f.pos.x + r);
    const int64_t r0 = grid.RowOf(f.pos.y - r);
    const int64_t r1 = grid.RowOf(f.pos.y + r);
    for (int64_t row = r0; row <= r1; ++row) {
      for (int64_t col = c0; col <= c1; ++col) {
        const std::size_t b = static_cast<std::size_t>(row * grid.nx + col);
        for (uint32_t k = grid.start[b]; k < grid.start[b + 1]; ++k) {
          const uint32_t i = grid.rows[k];
          const double dx = data[i].pos.x - f.pos.x;
          const double dy = data[i].pos.y - f.pos.y;
          if (dx * dx + dy * dy <= r2 && score > tau[i]) tau[i] = score;
        }
      }
    }
  }
  std::vector<ResultEntry> scored;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (tau[i] > 0.0) scored.push_back({data[i].id, tau[i]});
  }
  std::sort(scored.begin(), scored.end(), Better);
  return scored;
}

std::string CompareAnswers(const std::vector<ResultEntry>& got,
                           const std::vector<ResultEntry>& want) {
  char line[256];
  if (got.size() != want.size()) {
    std::snprintf(line, sizeof(line), "answer has %zu entries, expected %zu",
                  got.size(), want.size());
    return line;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].score != want[i].score) {
      std::snprintf(line, sizeof(line),
                    "rank %zu: got id %llu score %.17g, expected id %llu "
                    "score %.17g",
                    i, static_cast<unsigned long long>(got[i].id),
                    got[i].score, static_cast<unsigned long long>(want[i].id),
                    want[i].score);
      return line;
    }
  }
  return "";
}

Check CheckAnswer(const std::vector<ResultEntry>& got,
                  const std::vector<ResultEntry>& ranking, uint32_t k) {
  const std::vector<ResultEntry> want(
      ranking.begin(),
      ranking.begin() + static_cast<long>(std::min<std::size_t>(k, ranking.size())));
  Check check;
  check.detail = CompareAnswers(got, want);
  if (check.detail.empty()) return check;
  check.verdict = Verdict::kWrong;
  if (got.size() != want.size()) return check;
  std::unordered_map<uint64_t, double> tau;
  for (const ResultEntry& e : ranking) tau.emplace(e.id, e.score);
  std::unordered_set<uint64_t> seen;
  for (std::size_t i = 0; i < got.size(); ++i) {
    auto it = tau.find(got[i].id);
    if (got[i].score != want[i].score || it == tau.end() ||
        it->second != got[i].score || !seen.insert(got[i].id).second ||
        (i > 0 && !Better(got[i - 1], got[i]))) {
      return check;
    }
  }
  // Same score sequence and every entry a distinct object of that τ: the
  // sets can differ only among the objects tied at the k-th score.
  check.verdict = Verdict::kTieOrder;
  return check;
}

}  // namespace perfbench
