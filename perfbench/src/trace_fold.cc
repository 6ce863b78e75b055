#include "trace_fold.h"

#include <algorithm>

namespace perfbench {

void FoldSpans(const std::vector<spq::trace::SpanEvent>& events,
               SpanTotals& totals) {
  std::vector<const spq::trace::SpanEvent*> order;
  order.reserve(events.size());
  for (const auto& e : events) order.push_back(&e);
  // Per thread, outer spans before the spans they contain.
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->dur_ns > b->dur_ns;
  });
  std::vector<double> child_ns(order.size(), 0.0);
  std::vector<std::size_t> open;  // indices into `order`, innermost last
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto* span = order[i];
    if (i > 0 && order[i - 1]->tid != span->tid) open.clear();
    const uint64_t end = span->start_ns + span->dur_ns;
    while (!open.empty()) {
      const auto* outer = order[open.back()];
      if (outer->start_ns + outer->dur_ns >= end) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += static_cast<double>(span->dur_ns);
    open.push_back(i);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const double self =
        std::max(0.0, static_cast<double>(order[i]->dur_ns) - child_ns[i]);
    totals.self_ns[order[i]->name] += self;
    ++totals.count[order[i]->name];
  }
}

}  // namespace perfbench
