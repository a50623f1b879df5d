#include "checks.h"

#include <algorithm>
#include <cmath>

namespace xbench {

using xdgp::graph::kNoPartition;
using xdgp::graph::PartitionId;
using xdgp::graph::VertexId;

namespace {

void fail(Failures& f, const std::string& check, const std::string& what) {
  // Keep the report short: the first few lines per check are enough.
  std::size_t already = 0;
  for (const std::string& line : f) already += line.rfind(check + ":", 0) == 0;
  if (already < 5) f.push_back(check + ": " + what);
}

std::vector<VertexId> sorted(std::vector<VertexId> list) {
  std::sort(list.begin(), list.end());
  return list;
}

PartitionId partOf(const xdgp::metrics::Assignment& a, std::size_t v) {
  return v < a.size() ? a[v] : kNoPartition;
}

}  // namespace

std::size_t KSchedule::kAfter(std::size_t windowsApplied) const {
  return grow > 0 && windowsApplied > growWindow ? k0 + grow : k0;
}

std::size_t KSchedule::activeKAfter(std::size_t windowsApplied) const {
  const std::size_t retired =
      grow > 0 && windowsApplied > shrinkWindow ? shrinkIds.size() : 0;
  return kAfter(windowsApplied) - retired;
}

void checkGraph(const LiveOutcome& out, const ReplayGraph& replay, Failures& f) {
  const std::size_t bound = std::max(out.graphAlive.size(), replay.idBound());
  std::size_t vertices = 0, endpoints = 0;
  for (std::size_t v = 0; v < bound; ++v) {
    const bool engineAlive = v < out.graphAlive.size() && out.graphAlive[v] != 0;
    const auto id = static_cast<VertexId>(v);
    if (engineAlive != replay.alive(id)) {
      fail(f, "graph", "vertex " + std::to_string(v) + " alive=" +
                           std::to_string(engineAlive) + ", replay says " +
                           std::to_string(replay.alive(id)));
      continue;
    }
    if (!engineAlive) continue;
    ++vertices;
    endpoints += out.graphAdjacency[v].size();
    if (sorted(out.graphAdjacency[v]) != sorted(replay.neighbors(id))) {
      fail(f, "graph", "neighbours of " + std::to_string(v) +
                           " differ from the replay");
    }
  }
  if (vertices != replay.numVertices() || endpoints != 2 * replay.numEdges()) {
    fail(f, "graph", "|V|,2|E| = " + std::to_string(vertices) + "," +
                         std::to_string(endpoints) + ", replay " +
                         std::to_string(replay.numVertices()) + "," +
                         std::to_string(2 * replay.numEdges()));
  }
}

void checkDrained(const LiveOutcome& out, Failures& f) {
  if (out.drained != out.generated) {
    fail(f, "drained", std::to_string(out.drained) + " events drained, " +
                           std::to_string(out.generated) + " generated");
  }
}

void checkSnapshot(const LiveOutcome& out, const ReplayGraph& replay, Failures& f) {
  const std::size_t bound = out.snapPartition.size();
  if (bound < replay.idBound()) {
    fail(f, "snapshot", "idBound " + std::to_string(bound) + " < replay's " +
                            std::to_string(replay.idBound()));
    return;
  }
  for (std::size_t v = 0; v < bound; ++v) {
    const auto id = static_cast<VertexId>(v);
    const PartitionId engine = replay.alive(id) ? partOf(out.assignment, v)
                                                : kNoPartition;
    if (out.snapPartition[v] != engine) {
      fail(f, "snapshot", "partitionOf(" + std::to_string(v) + ") = " +
                              std::to_string(out.snapPartition[v]) +
                              ", engine assignment " + std::to_string(engine));
    }
    const std::vector<VertexId> expected =
        replay.alive(id) ? sorted(replay.neighbors(id)) : std::vector<VertexId>{};
    if (sorted(out.snapNeighbors[v]) != expected) {
      fail(f, "snapshot", "neighbors(" + std::to_string(v) +
                              ") differ from the replay");
    }
    std::size_t cutDegree = 0;
    for (const VertexId u : expected) {
      cutDegree += partOf(out.assignment, u) != engine ? 1 : 0;
    }
    if (out.snapCutDegree[v] != cutDegree) {
      fail(f, "snapshot", "cutDegree(" + std::to_string(v) + ") = " +
                              std::to_string(out.snapCutDegree[v]) +
                              ", recount " + std::to_string(cutDegree));
    }
  }
}

void checkCut(const LiveOutcome& out, const ReplayGraph& replay, Failures& f) {
  const std::size_t cut = replay.cutEdges(out.assignment);
  if (out.engineCutEdges != cut || out.snapCutEdges != cut) {
    fail(f, "cut", "engine " + std::to_string(out.engineCutEdges) +
                       ", snapshot " + std::to_string(out.snapCutEdges) +
                       ", brute force " + std::to_string(cut));
  }
  const double ratio = replay.numEdges() == 0
                           ? 0.0
                           : static_cast<double>(cut) /
                                 static_cast<double>(replay.numEdges());
  if (std::abs(out.snapCutRatio - ratio) > 1e-12) {
    fail(f, "cut", "snapshot cut ratio " + std::to_string(out.snapCutRatio) +
                       ", brute force " + std::to_string(ratio));
  }
}

void checkCapacity(const LiveOutcome& out, const ReplayGraph& replay, Failures& f) {
  std::vector<std::size_t> recount(out.loads.size(), 0);
  for (std::size_t v = 0; v < replay.idBound(); ++v) {
    if (!replay.alive(static_cast<VertexId>(v))) continue;
    const PartitionId p = partOf(out.assignment, v);
    if (p >= recount.size()) {
      fail(f, "capacity", "vertex " + std::to_string(v) + " on partition " +
                              std::to_string(p) + " outside k=" +
                              std::to_string(recount.size()));
      continue;
    }
    ++recount[p];
  }
  if (recount != out.loads) fail(f, "capacity", "loads differ from a recount");
  if (out.capacities.size() != out.loads.size()) {
    fail(f, "capacity", "capacities and loads disagree on k");
    return;
  }
  for (std::size_t p = 0; p < out.loads.size(); ++p) {
    const bool active = p < out.active.size() && out.active[p] != 0;
    if (active && out.loads[p] > out.capacities[p]) {
      fail(f, "capacity", "partition " + std::to_string(p) + " load " +
                              std::to_string(out.loads[p]) + " > capacity " +
                              std::to_string(out.capacities[p]));
    }
  }
}

void checkReaders(const LiveOutcome& out, Failures& f) {
  std::size_t seen = 0;
  for (const std::vector<Sighting>& log : out.readers) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      ++seen;
      if (log[i].torn) fail(f, "readers", "torn snapshot at epoch " +
                                              std::to_string(log[i].epoch));
      if (i == 0) continue;
      const Sighting& prev = log[i - 1];
      const bool sameBoard = prev.generation == log[i].generation;
      if (log[i].generation < prev.generation ||
          (sameBoard && log[i].epoch <= prev.epoch)) {
        fail(f, "readers", "epoch went from " + std::to_string(prev.epoch) +
                               " to " + std::to_string(log[i].epoch));
      }
    }
  }
  if (!out.readers.empty() && seen == 0) fail(f, "readers", "no snapshot seen");
}

void checkSchedule(const LiveOutcome& out, const ReplayGraph& replay,
                   const KSchedule& schedule, Failures& f) {
  for (const PartitionId p : schedule.shrinkIds) {
    for (std::size_t v = 0; v < replay.idBound(); ++v) {
      if (replay.alive(static_cast<VertexId>(v)) && partOf(out.assignment, v) == p) {
        fail(f, "schedule", "vertex " + std::to_string(v) +
                                " still on retired partition " + std::to_string(p));
      }
    }
  }
  for (const std::vector<Sighting>& log : out.readers) {
    for (const Sighting& s : log) {
      if (s.k != schedule.kAfter(s.window) ||
          s.activeK != schedule.activeKAfter(s.window)) {
        fail(f, "schedule", "snapshot after " + std::to_string(s.window) +
                                " windows has k=" + std::to_string(s.k) +
                                " activeK=" + std::to_string(s.activeK));
      }
    }
  }
}

void checkRecovery(const xdgp::metrics::Assignment& recovered,
                   const xdgp::metrics::Assignment& uninterrupted, Failures& f) {
  if (recovered.size() != uninterrupted.size()) {
    fail(f, "recovery", "assignment sizes differ");
    return;
  }
  for (std::size_t v = 0; v < recovered.size(); ++v) {
    if (recovered[v] != uninterrupted[v]) {
      fail(f, "recovery", "vertex " + std::to_string(v) + " recovered on " +
                              std::to_string(recovered[v]) + ", uninterrupted on " +
                              std::to_string(uninterrupted[v]));
    }
  }
}

void checkTrajectory(const std::vector<WindowFacts>& untraced,
                     const std::vector<WindowFacts>& traced, Failures& f) {
  if (untraced.size() != traced.size()) {
    fail(f, "trajectory", std::to_string(traced.size()) + " traced windows, " +
                              std::to_string(untraced.size()) + " untraced");
    return;
  }
  for (std::size_t w = 0; w < traced.size(); ++w) {
    if (!(traced[w] == untraced[w])) {
      fail(f, "trajectory",
           "window " + std::to_string(w) + " traced (iters,migr,cut) = (" +
               std::to_string(traced[w].iterations) + "," +
               std::to_string(traced[w].migrations) + "," +
               std::to_string(traced[w].cutEdges) + "), untraced (" +
               std::to_string(untraced[w].iterations) + "," +
               std::to_string(untraced[w].migrations) + "," +
               std::to_string(untraced[w].cutEdges) + ")");
    }
  }
}

void checkPregel(const PregelOutcome& out, const std::vector<double>& fixedPoint,
                 Failures& f) {
  if (out.lostMessages != 0) {
    fail(f, "pregel", std::to_string(out.lostMessages) + " messages lost");
  }
  for (std::size_t s = 0; s < out.localMessages.size(); ++s) {
    const std::size_t sent = out.localMessages[s] + out.remoteMessages[s];
    if (sent != 2 * out.liveEdges) {
      fail(f, "pregel", "superstep " + std::to_string(s) + " sent " +
                            std::to_string(sent) + " messages, 2|E| = " +
                            std::to_string(2 * out.liveEdges));
    }
  }
  if (out.values.size() != fixedPoint.size()) {
    fail(f, "pregel", "value vector size differs from the fixed point's");
    return;
  }
  for (std::size_t v = 0; v < fixedPoint.size(); ++v) {
    const double scale = std::max(1.0, std::abs(fixedPoint[v]));
    if (!(std::abs(out.values[v] - fixedPoint[v]) <= kTunkRankTolerance * scale)) {
      fail(f, "pregel", "TunkRank(" + std::to_string(v) + ") = " +
                            std::to_string(out.values[v]) + ", fixed point " +
                            std::to_string(fixedPoint[v]));
    }
  }
}

std::vector<double> tunkRankFixedPoint(const ReplayGraph& g,
                                       double retweetProbability,
                                       std::size_t iterations) {
  std::vector<double> value(g.idBound(), 0.0), next(g.idBound(), 0.0);
  for (std::size_t it = 0; it < iterations; ++it) {
    for (std::size_t u = 0; u < g.idBound(); ++u) {
      double sum = 0.0;
      if (g.alive(static_cast<VertexId>(u))) {
        for (const VertexId nbr : g.neighbors(static_cast<VertexId>(u))) {
          sum += (1.0 + retweetProbability * value[nbr]) /
                 static_cast<double>(g.neighbors(nbr).size());
        }
      }
      next[u] = sum;
    }
    value.swap(next);
  }
  return value;
}

}  // namespace xbench
