// mlq_perfbench: runs one benchmark workload and prints its result line.
//
//   mlq_perfbench --workload paper_stream --seed 1 --seconds 20 --trace 0
//                 [--span-out spans.bin]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from a run that records spans of every k-th op). The last line
// of standard output is the JSON result; a readable table goes to stderr.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "mlq_perfbench: %s\nusage: mlq_perfbench --workload "
               "<paper_stream|catalog_fleet|query_loop> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-out <file>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing flag value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::string_view(value) == "1";
    } else if (flag == "--span-out") {
      config.span_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!perfbench::IsWorkload(config.workload)) {
    return Usage("unknown workload");
  }
  if (!(config.seconds >= 0.0)) return Usage("bad --seconds");

  const perfbench::RunResult result = perfbench::RunWorkload(config);
  const perfbench::MetricSet& shown =
      config.trace ? result.per_layer : result.end_to_end;
  std::fprintf(stderr,
               "%s seed=%llu attempted=%lld failed=%lld cold_setup_s=%.6g\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               static_cast<long long>(result.attempted),
               static_cast<long long>(result.failed), result.cold_setup_s);
  for (const perfbench::MetricSet::Metric& m : shown.metrics()) {
    std::fprintf(stderr, "  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result, config.trace).c_str());
  return 0;
}
