#pragma once

// The live-path workloads (churn, durable, elastic): rounds of the partition
// service over seeded inputs, with reader threads querying the published
// snapshots, end-to-end metrics from untraced rounds and per-layer metrics
// from a traced rebuild of the service loop.

#include <cstdint>
#include <optional>
#include <string>

#include "checks.h"
#include "common.h"
#include "inputs.h"

namespace xbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;         ///< scratch space (checkpoints, span files)
  std::int64_t startNs = 0;    ///< process start, for setup_s
  /// Replaces specFor(workload) (the self-tests run shrunken specs).
  std::optional<LiveSpec> spec;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  Failures failures;  ///< output-check failures; empty = correct
};

[[nodiscard]] RunResult runWorkload(const RunOptions& options);

/// One untraced service round of `spec` with its readers, as the plain data
/// the checks read (the self-tests corrupt it).
[[nodiscard]] LiveOutcome sampleOutcome(const LiveSpec& spec, std::uint64_t seed);

}  // namespace xbench
