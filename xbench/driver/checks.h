#pragma once

// Output checks. Every check compares the program's output, copied into
// plain data (LiveOutcome / PregelOutcome), against the benchmark's own
// replay or against a property the method must have — never against a
// stored copy. Each check appends "<check>: <what>" lines to `failures`;
// the self-tests corrupt one value at a time and expect the matching check
// to fail.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.h"
#include "metrics/cuts.h"
#include "replay.h"

namespace xbench {

using Failures = std::vector<std::string>;

/// One snapshot as a reader saw it.
struct Sighting {
  std::uint64_t generation = 0;  ///< board: 0, or 1 after a restore
  std::uint64_t epoch = 0;
  bool torn = false;
  std::size_t window = 0;        ///< SnapshotStats::window
  std::size_t k = 0;
  std::size_t activeK = 0;
  std::int64_t ns = 0;           ///< when the reader first saw it
};

/// The final program state of a live-path run, as plain data.
struct LiveOutcome {
  // The engine's graph and assignment.
  std::vector<std::uint8_t> graphAlive;
  std::vector<std::vector<xdgp::graph::VertexId>> graphAdjacency;
  xdgp::metrics::Assignment assignment;
  std::size_t engineCutEdges = 0;
  std::vector<std::size_t> loads;       ///< engine's per-partition loads
  std::vector<std::size_t> capacities;  ///< engine's per-partition capacities
  std::vector<std::uint8_t> active;     ///< engine's active mask

  // The final published snapshot's answers for every id < its idBound.
  std::vector<xdgp::graph::PartitionId> snapPartition;
  std::vector<std::vector<xdgp::graph::VertexId>> snapNeighbors;
  std::vector<std::size_t> snapCutDegree;
  std::size_t snapCutEdges = 0;
  double snapCutRatio = 0.0;

  std::size_t drained = 0;    ///< Σ eventsDrained over the timeline
  std::size_t generated = 0;  ///< events the benchmark generated

  /// Every reader's sightings, in the order that reader made them.
  std::vector<std::vector<Sighting>> readers;
};

/// Expected shape of the partition set over the stream (elastic k).
struct KSchedule {
  std::size_t k0 = 0;
  std::size_t grow = 0;
  std::size_t growWindow = 0;
  std::size_t shrinkWindow = 0;
  std::vector<xdgp::graph::PartitionId> shrinkIds;

  /// k and activeK of a snapshot cut after `windowsApplied` windows.
  [[nodiscard]] std::size_t kAfter(std::size_t windowsApplied) const;
  [[nodiscard]] std::size_t activeKAfter(std::size_t windowsApplied) const;
};

// --- live path ----------------------------------------------------------
/// The engine's final graph equals the replay: liveness and neighbour sets.
void checkGraph(const LiveOutcome& out, const ReplayGraph& replay, Failures& f);
/// Every generated event was drained exactly once.
void checkDrained(const LiveOutcome& out, Failures& f);
/// The final snapshot answers partitionOf / neighbors / cutDegree as the
/// replay and the engine's assignment say it must.
void checkSnapshot(const LiveOutcome& out, const ReplayGraph& replay, Failures& f);
/// The reported cut (engine and snapshot) equals a brute-force count.
void checkCut(const LiveOutcome& out, const ReplayGraph& replay, Failures& f);
/// Loads equal a recount of the assignment; no active partition exceeds its
/// capacity.
void checkCapacity(const LiveOutcome& out, const ReplayGraph& replay, Failures& f);
/// Readers saw strictly increasing epochs per board and no torn snapshot.
void checkReaders(const LiveOutcome& out, Failures& f);
/// Elastic k: no live vertex on a retired partition, and every snapshot's
/// k / activeK follows the schedule.
void checkSchedule(const LiveOutcome& out, const ReplayGraph& replay,
                   const KSchedule& schedule, Failures& f);
/// Crash/restore: the recovered assignment equals the uninterrupted one.
void checkRecovery(const xdgp::metrics::Assignment& recovered,
                   const xdgp::metrics::Assignment& uninterrupted, Failures& f);

/// One window of a trajectory, for the traced-vs-untraced cross-check.
struct WindowFacts {
  std::size_t iterations = 0;
  std::size_t migrations = 0;
  std::size_t cutEdges = 0;
  friend bool operator==(const WindowFacts&, const WindowFacts&) = default;
};
/// The traced run's rebuilt loop reproduced the untraced trajectory.
void checkTrajectory(const std::vector<WindowFacts>& untraced,
                     const std::vector<WindowFacts>& traced, Failures& f);

// --- pregel probe -------------------------------------------------------
struct PregelOutcome {
  std::size_t liveEdges = 0;
  std::vector<std::size_t> localMessages;   ///< per superstep
  std::vector<std::size_t> remoteMessages;  ///< per superstep
  std::size_t lostMessages = 0;
  std::vector<double> values;  ///< TunkRank value per id (0 for dead ids)
};
/// Relative tolerance of the TunkRank fixed-point comparison.
inline constexpr double kTunkRankTolerance = 1e-9;
/// Deferred migration loses nothing; every superstep sends one message per
/// edge endpoint; TunkRank values equal `fixedPoint` within tolerance.
void checkPregel(const PregelOutcome& out, const std::vector<double>& fixedPoint,
                 Failures& f);
/// The benchmark's own TunkRank: Jacobi iteration of
///   I(u) = Σ_{f ∈ N(u)} (1 + p·I(f)) / deg(f)
/// from I = 0, on the replay graph.
[[nodiscard]] std::vector<double> tunkRankFixedPoint(const ReplayGraph& g,
                                                     double retweetProbability,
                                                     std::size_t iterations);

}  // namespace xbench
