#include "inputs.h"

#include <stdexcept>
#include <utility>

#include "common.h"
#include "gen/cdr_stream.h"
#include "gen/parallel.h"
#include "util/rng.h"

namespace xbench {

using xdgp::graph::UpdateEvent;
using xdgp::graph::VertexId;

namespace {

// Shape of the power-law graph (churn, durable).
constexpr std::size_t kAttach = 4;  ///< edges per vertex
constexpr double kTriad = 0.1;      ///< Holme-Kim triad probability

// Action mix of the churn stream (shares of actions; vertex leaves take the
// rest). A join emits an AddVertex plus kJoinEdges AddEdge events; every
// other action one event.
constexpr double kAddLocal = 0.35;    ///< friend-of-friend edge (triadic closure)
constexpr double kAddRandom = 0.25;   ///< uniformly random edge
constexpr double kRemoveEdge = 0.32;  ///< removal of a known edge
constexpr double kJoin = 0.04;        ///< vertex join
constexpr std::size_t kJoinEdges = 2;

}  // namespace

LiveSpec specFor(const std::string& workload) {
  LiveSpec spec;
  spec.name = workload;
  if (workload == "churn") {
    // The live path at scale: 1M-vertex power-law graph, 100 windows of 10k
    // events (1M events), small enough that most publishes take the
    // overlay path; no checkpoints until the shutdown checkpoint.
    spec.vertices = 1'000'000;
    spec.windows = 100;
    spec.eventsPerWindow = 10'000;
  } else if (workload == "durable") {
    // Checkpoint-bound live path: 100k vertices, windows touching ~5% of
    // |V| (snapshots compact every window or two), a checkpoint every 5
    // windows, and a crash late in the stream so the restored service
    // replays the windows since the last checkpoint (25..27). A round's 29
    // freshness intervals hold 5 cadence checkpoints, the crash and the 2
    // windows after it (the restored service checkpoints every window), so
    // p90 sits in the middle of the checkpoint-bound intervals; with the
    // cadence kept after a restore, 6 of 29, and it still does. Short rounds
    // give a run many crashes to take recovery_s over.
    spec.vertices = 100'000;
    spec.windows = 30;
    spec.eventsPerWindow = 3'000;
    spec.checkpointEvery = 5;
    spec.crashWindow = 27;
  } else if (workload == "elastic") {
    // CDR call graph on the LPA engine: grow 8 -> 12 at a third of the
    // stream, retire two partitions at two thirds. At the engine's default
    // score epsilon (0.02) some seeds oscillate for whole windows (total
    // migrations 56k-156k over eight seeds); 0.05 converges every seed in
    // under 90 iterations per window with migrations within 6% of each other.
    // Rounds are short (50 windows), so a run holds many.
    spec.subscribers = 8'000;
    spec.weeks = 4;
    spec.windowSpan = 0.08;
    spec.windows = 50;
    spec.k = 8;
    spec.engine = xdgp::core::EngineKind::kLpa;
    spec.grow = 4;
    spec.growWindow = 16;
    spec.shrinkWindow = 33;
    spec.shrinkIds = {10, 11};
    spec.lpaScoreEpsilon = 0.05;
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (known: churn, durable, elastic)");
  }
  return spec;
}

namespace {

/// The churn stream over a power-law graph. Tracks which ids exist and a
/// pool of known edges so removals mostly hit; locality adds close a
/// triangle through the initial graph's adjacency.
std::vector<UpdateEvent> churnStream(const LiveSpec& spec,
                                     const xdgp::graph::DynamicGraph& g,
                                     std::uint64_t seed) {
  xdgp::util::Rng rng(xdgp::util::Rng::splitmix64(seed ^ 0x5eedc0de));
  std::vector<std::pair<VertexId, VertexId>> known;
  known.reserve(g.numEdges());
  g.forEachEdge([&](VertexId u, VertexId v) { known.emplace_back(u, v); });
  auto nextId = static_cast<VertexId>(g.idBound());
  constexpr double cLocal = kAddLocal;
  constexpr double cRandom = cLocal + kAddRandom;
  constexpr double cRemove = cRandom + kRemoveEdge;
  constexpr double cJoin = cRemove + kJoin;
  std::vector<UpdateEvent> events;
  events.reserve(spec.windows * (spec.eventsPerWindow + kJoinEdges + 1));
  const auto pickVertex = [&] { return static_cast<VertexId>(rng.index(nextId)); };
  for (std::size_t w = 0; w < spec.windows; ++w) {
    const double slots = static_cast<double>(spec.eventsPerWindow + kJoinEdges + 2);
    std::size_t j = 0;
    const auto stamp = [&] {
      return static_cast<double>(w) + (static_cast<double>(j++) + 0.5) / slots;
    };
    while (j < spec.eventsPerWindow) {
      const double r = rng.uniform();
      if (r < cLocal) {
        const VertexId u = pickVertex();
        const auto nu = u < g.idBound() ? g.neighbors(u)
                                        : std::span<const VertexId>{};
        if (nu.empty()) continue;
        const VertexId mid = nu[rng.index(nu.size())];
        const auto nm = g.neighbors(mid);
        const VertexId v = nm[rng.index(nm.size())];
        if (v == u) continue;
        events.push_back(UpdateEvent::addEdge(u, v, stamp()));
        known.emplace_back(u, v);
      } else if (r < cRandom) {
        const VertexId u = pickVertex();
        const VertexId v = pickVertex();
        if (u == v) continue;
        events.push_back(UpdateEvent::addEdge(u, v, stamp()));
        known.emplace_back(u, v);
      } else if (r < cRemove) {
        if (known.empty()) continue;
        const std::size_t pick = rng.index(known.size());
        const auto [u, v] = known[pick];
        known[pick] = known.back();
        known.pop_back();
        events.push_back(UpdateEvent::removeEdge(u, v, stamp()));
      } else if (r < cJoin) {
        const VertexId id = nextId++;
        events.push_back(UpdateEvent::addVertex(id, stamp()));
        for (std::size_t e = 0; e < kJoinEdges && !known.empty(); ++e) {
          // Preferential target: an endpoint of a random known edge.
          const auto& edge = known[rng.index(known.size())];
          const VertexId target = rng.bernoulli(0.5) ? edge.first : edge.second;
          events.push_back(UpdateEvent::addEdge(id, target, stamp()));
          known.emplace_back(id, target);
        }
      } else {
        events.push_back(UpdateEvent::removeVertex(pickVertex(), stamp()));
      }
    }
  }
  return events;
}

}  // namespace

LiveInputs makeInputs(const LiveSpec& spec, std::uint64_t seed) {
  LiveInputs in;
  in.spec = spec;
  if (spec.vertices > 0) {
    std::int64_t t0 = nowNs();
    // Four generator threads at most: the host budget of this benchmark.
    in.initial = xdgp::gen::powerlawClusterParallel(spec.vertices, kAttach, kTriad,
                                                    seed, 4);
    std::int64_t t1 = nowNs();
    in.genGraphSeconds = seconds(t0, t1);
    in.events = churnStream(spec, in.initial, seed);
    in.genStreamSeconds = seconds(t1, nowNs());
    in.serve.stream.windowSpan = 1.0;
  } else {
    std::int64_t t0 = nowNs();
    xdgp::gen::CdrStreamParams params;
    params.initialSubscribers = spec.subscribers;
    params.weeks = spec.weeks;
    xdgp::gen::CdrStreamGenerator generator(params, xdgp::util::Rng(seed));
    in.initial = generator.initialGraph();
    std::int64_t t1 = nowNs();
    in.genGraphSeconds = seconds(t0, t1);
    for (std::size_t week = 0; week < spec.weeks; ++week) {
      xdgp::gen::CdrWeek batch = generator.nextWeek();
      in.events.insert(in.events.end(), batch.events.begin(), batch.events.end());
    }
    in.genStreamSeconds = seconds(t1, nowNs());
    in.serve.stream.windowSpan = spec.windowSpan;
    // CDR weeks end exactly on a window boundary; the horizon keeps the
    // window count fixed whatever the last event's timestamp.
    in.serve.stream.maxWindows = spec.windows;
  }
  in.adaptive.k = spec.k;
  in.adaptive.seed = seed;
  in.adaptive.engine = spec.engine;
  in.adaptive.lpaScoreEpsilon = spec.lpaScoreEpsilon;
  in.adaptive.threads = 1;  // the ingest thread runs the decision phase
  if (spec.grow > 0) {
    in.serve.resizes.push_back({spec.growWindow, spec.grow, {}});
    in.serve.resizes.push_back({spec.shrinkWindow, 0, spec.shrinkIds});
  }
  in.serve.checkpointEvery = spec.checkpointEvery;
  if (spec.crashWindow != LiveSpec::kNoCrash) {
    in.serve.faults = xdgp::serve::FaultPlan::parse(
        "crash@window=" + std::to_string(spec.crashWindow));
  }
  return in;
}

std::vector<std::size_t> eventMix(const std::vector<UpdateEvent>& events) {
  std::vector<std::size_t> mix(4, 0);
  for (const UpdateEvent& e : events) ++mix[static_cast<std::size_t>(e.kind)];
  return mix;
}

}  // namespace xbench
