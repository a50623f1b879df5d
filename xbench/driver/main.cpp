// xbench: the xdgp benchmark driver.
//
//   xbench --workload <churn|durable|elastic> --seed <n> --seconds <s>
//          --trace <0|1>
//
// Generates the workload's inputs from the seed, runs whole rounds of the
// partition service until --seconds have passed, checks the outputs, and
// prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (span files go to .bench_build/work/trace/ under the working directory).

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "live.h"

int main(int argc, char** argv) {
  const std::int64_t startNs = xbench::nowNs();
  try {
    xbench::RunOptions options;
    options.startNs = startNs;
    options.workDir = ".bench_build/work";
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        haveWorkload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (!haveWorkload) throw std::invalid_argument("--workload is required");
    const xbench::RunResult result = xbench::runWorkload(options);
    for (const std::string& failure : result.failures) {
      std::cerr << "check failed: " << failure << "\n";
    }
    std::cout << "{\"correct\": " << (result.failures.empty() ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : result.metrics) {
      std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
                << xbench::fullDigits(metric.value) << ", \"unit\": \""
                << metric.unit << "\"}";
      first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "xbench: " << error.what() << "\n";
    return 1;
  }
}
