#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "harness.h"

namespace perfbench {

/// One workload: fills `report` from a run of `options.seconds` timed
/// seconds. Returns a process exit code (0 = the run completed; the
/// report says whether its outputs were correct).
struct Workload {
  const char* name;
  int (*run)(const Options& options, Report& report);
};

/// cold_clustered, warm_flickr, churn_uniform (see README.md).
const std::vector<Workload>& Workloads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
