// End-to-end benchmark program of the SPQ engine.
//
//   spq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints one diagnostics line and, as the last line of standard output, a
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Progress and problems go to standard error. See README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: spq_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const auto& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 == 0 || !(options.seconds > 0)) return Usage();
  spq::Logger::SetMinLevel(spq::LogLevel::kWarn);

  for (const auto& w : perfbench::Workloads()) {
    if (options.workload != w.name) continue;
    perfbench::Report report;
    perfbench::Progress(std::string("workload ") + w.name);
    const int code = w.run(options, report);
    perfbench::Progress("checks done");
    if (code != 0) return code;
    return report.Print(options.trace) ? 0 : 1;
  }
  return Usage();
}
