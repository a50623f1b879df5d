#pragma once

// Seeded input generation for the benchmark's workloads. The program under
// test only ever receives what is made here: an initial graph, an event
// stream, and the service configuration. The same seed gives the same inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/dynamic_graph.h"
#include "graph/update_stream.h"
#include "serve/service.h"

namespace xbench {

/// Size and mix of one live-path workload. The named workloads are fixed
/// specs (specFor); the self-tests shrink them.
struct LiveSpec {
  std::string name;

  // --- initial graph and churn stream (churn, durable) --------------------
  /// 0 selects the CDR call-graph source instead of the power-law one.
  std::size_t vertices = 0;
  std::size_t windows = 0;      ///< one tick of stream time per window
  std::size_t eventsPerWindow = 0;

  // --- CDR call-graph stream (elastic) ------------------------------------
  std::size_t subscribers = 0;
  std::size_t weeks = 0;
  double windowSpan = 0.0;  ///< stream-time span of one window (CDR weeks)

  // --- service configuration ----------------------------------------------
  std::size_t k = 9;
  xdgp::core::EngineKind engine = xdgp::core::EngineKind::kGreedy;
  /// LPA: minimum score gain for a move (AdaptiveOptions::lpaScoreEpsilon).
  double lpaScoreEpsilon = 0.02;
  /// Elastic schedule: grow by `grow` at window growWindow, retire
  /// `shrinkIds` at window shrinkWindow (no resizes when grow == 0).
  std::size_t grow = 0;
  std::size_t growWindow = 0;
  std::size_t shrinkWindow = 0;
  std::vector<xdgp::graph::PartitionId> shrinkIds;
  /// Checkpoint cadence during the stream (0 = no checkpoint directory).
  std::size_t checkpointEvery = 0;
  /// Scheduled crash@window (durable); kNoCrash = none.
  static constexpr std::size_t kNoCrash = static_cast<std::size_t>(-1);
  std::size_t crashWindow = kNoCrash;
};

/// The spec behind a workload name; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] LiveSpec specFor(const std::string& workload);

/// Generated inputs of one live-path run.
struct LiveInputs {
  LiveSpec spec;
  xdgp::graph::DynamicGraph initial;
  std::vector<xdgp::graph::UpdateEvent> events;
  xdgp::core::AdaptiveOptions adaptive;
  xdgp::serve::ServeOptions serve;  ///< checkpointDir left empty
  double genGraphSeconds = 0.0;
  double genStreamSeconds = 0.0;
};

/// Makes the initial graph and the event stream of `spec` from `seed`.
[[nodiscard]] LiveInputs makeInputs(const LiveSpec& spec, std::uint64_t seed);

/// Total events in the stream by kind: {AddVertex, RemoveVertex, AddEdge,
/// RemoveEdge} (documentation and the generator self-test).
[[nodiscard]] std::vector<std::size_t> eventMix(
    const std::vector<xdgp::graph::UpdateEvent>& events);

}  // namespace xbench
