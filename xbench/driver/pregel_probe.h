#pragma once

// The pregel layer on a live workload's inputs: TunkRank on pregel::Engine
// (sharded runtime, mailboxes, deferred migration, adaptive background
// partitioner). The probe loads the initial graph, ingests the event stream
// window by window, then runs a fixed number of supersteps on the final
// graph. Traced runs only: it feeds the pregel.* per-layer metrics and the
// pregel output checks.

#include <cstdint>
#include <vector>

#include "checks.h"
#include "api/stream.h"
#include "graph/dynamic_graph.h"
#include "graph/update_stream.h"
#include "metrics/cuts.h"
#include "trace.h"

namespace xbench {

/// Supersteps the probe runs: TunkRank's error shrinks by the retweet
/// probability (0.05) per superstep, so 16 reach the fixed point to ~1e-20.
inline constexpr std::size_t kProbeSupersteps = 16;

struct PregelProbe {
  PregelOutcome outcome;
  std::size_t migrationsExecuted = 0;
};

/// Loads `initial` with `assignment` on k workers, ingests `events` in the
/// windows `stream` cuts, then runs `supersteps` TunkRank supersteps with
/// `threads` compute threads. Spans "pregel.load", "pregel.apply" (one per
/// window) and "pregel.superstep" go to `tracer`.
[[nodiscard]] PregelProbe runPregelProbe(const xdgp::graph::DynamicGraph& initial,
                                         const xdgp::metrics::Assignment& assignment,
                                         const std::vector<xdgp::graph::UpdateEvent>& events,
                                         const xdgp::api::StreamOptions& stream,
                                         std::size_t k, std::uint64_t seed,
                                         std::size_t supersteps,
                                         std::size_t threads, Tracer* tracer);

}  // namespace xbench
