#include "pregel_probe.h"

#include <optional>

#include "apps/tunkrank.h"
#include "pregel/engine.h"

namespace xbench {

PregelProbe runPregelProbe(const xdgp::graph::DynamicGraph& initial,
                           const xdgp::metrics::Assignment& assignment,
                           const std::vector<xdgp::graph::UpdateEvent>& events,
                           const xdgp::api::StreamOptions& stream,
                           std::size_t k, std::uint64_t seed,
                           std::size_t supersteps, std::size_t threads,
                           Tracer* tracer) {
  xdgp::pregel::EngineOptions options;
  options.numWorkers = k;
  options.adaptive = true;
  options.partitioner.seed = seed;
  options.threads = threads;
  using Engine = xdgp::pregel::Engine<xdgp::apps::TunkRankProgram>;
  std::optional<Engine> engine;
  {
    XBENCH_SPAN(tracer, "pregel.load");
    engine.emplace(initial, assignment, options);
  }
  xdgp::api::Streamer streamer(xdgp::graph::UpdateStream(events), stream);
  while (std::optional<xdgp::api::WindowBatch> batch = streamer.next()) {
    XBENCH_SPAN(tracer, "pregel.apply", batch->index);
    (void)engine->ingest(batch->events);
  }
  PregelProbe probe;
  for (std::size_t s = 0; s < supersteps; ++s) {
    XBENCH_SPAN(tracer, "pregel.superstep", s);
    const xdgp::pregel::SuperstepStats stats = engine->runSuperstep();
    probe.outcome.localMessages.push_back(stats.localMessages);
    probe.outcome.remoteMessages.push_back(stats.remoteMessages);
    probe.outcome.lostMessages += stats.lostMessages;
    probe.migrationsExecuted += stats.migrationsExecuted;
  }
  probe.outcome.liveEdges = engine->graph().numEdges();
  probe.outcome.values.assign(engine->graph().idBound(), 0.0);
  engine->graph().forEachVertex(
      [&](xdgp::graph::VertexId v) { probe.outcome.values[v] = engine->value(v); });
  return probe;
}

}  // namespace xbench
