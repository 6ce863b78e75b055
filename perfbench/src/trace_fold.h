#ifndef PERFBENCH_TRACE_FOLD_H_
#define PERFBENCH_TRACE_FOLD_H_

// Folds the engine's span capture (common/trace.h) into self time per span
// name. Spans carry no parent link, so nesting is recovered per thread
// from the intervals: a span's parent is the innermost span of the same
// thread whose interval contains it. A span's self time is its duration
// minus the durations of its direct children. Work a span hands to other
// threads (map and reduce tasks on the worker pool) is not its child: the
// waiting stays in the parent's self time and the task's own time is
// counted under the task span.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

struct SpanTotals {
  std::map<std::string, double> self_ns;   ///< by span name
  std::map<std::string, uint64_t> count;   ///< spans folded, by name
};

void FoldSpans(const std::vector<spq::trace::SpanEvent>& events,
               SpanTotals& totals);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_FOLD_H_
