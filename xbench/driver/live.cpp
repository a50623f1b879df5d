#include "live.h"

#include <atomic>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <unistd.h>

#include "api/partitioner_registry.h"
#include "api/pipeline.h"
#include "api/stream.h"
#include "inputs.h"
#include "metrics/balance.h"
#include "pregel_probe.h"
#include "replay.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "serve/snapshot_builder.h"
#include "trace.h"
#include "util/rng.h"

namespace xbench {

namespace fs = std::filesystem;
using xdgp::api::WindowReport;
using xdgp::graph::VertexId;
using xdgp::serve::AssignmentSnapshot;
using xdgp::serve::PartitionService;
using xdgp::serve::SnapshotBoard;

namespace {

// ------------------------------------------------------------ latencies

/// Query-latency histogram: quarter-nanosecond bins up to 16 µs, then
/// doubling bins. Quantiles interpolate inside the bin, so they are not
/// quantised to the bin width.
class LatencyHistogram {
 public:
  static constexpr std::size_t kFine = 1 << 16;  ///< 0.25 ns bins
  static constexpr double kFineWidth = 0.25;
  static constexpr std::size_t kCoarse = 40;

  LatencyHistogram() : fine_(kFine, 0), coarse_(kCoarse, 0) {}

  void add(double ns) {
    ++count_;
    const double slot = ns / kFineWidth;
    if (slot < static_cast<double>(kFine)) {
      ++fine_[static_cast<std::size_t>(slot)];
      return;
    }
    std::size_t b = 0;
    double upper = 2.0 * kFine * kFineWidth;
    while (ns >= upper && b + 1 < kCoarse) {
      upper *= 2.0;
      ++b;
    }
    ++coarse_[b];
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kFine; ++i) fine_[i] += other.fine_[i];
    for (std::size_t i = 0; i < kCoarse; ++i) coarse_[i] += other.coarse_[i];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    double seen = 0.0;
    for (std::size_t i = 0; i < kFine; ++i) {
      const auto n = static_cast<double>(fine_[i]);
      if (n > 0 && seen + n >= rank) {
        return (static_cast<double>(i) + (rank - seen) / n) * kFineWidth;
      }
      seen += n;
    }
    double lower = kFine * kFineWidth;
    for (std::size_t i = 0; i < kCoarse; ++i) {
      const auto n = static_cast<double>(coarse_[i]);
      if (n > 0 && seen + n >= rank) return lower * (1.0 + (rank - seen) / n);
      seen += n;
      lower *= 2.0;
    }
    return lower;
  }

 private:
  std::vector<std::uint64_t> fine_;
  std::vector<std::uint64_t> coarse_;
  std::uint64_t count_ = 0;
};

/// One query bundle against a snapshot: partition lookup, route cost, cut
/// degree and a neighbour scan (the xdgp_serve reader mix).
std::uint64_t queryBundle(const AssignmentSnapshot& snap, VertexId& cursor) {
  const auto bound = static_cast<VertexId>(snap.idBound());
  cursor = static_cast<VertexId>((cursor + 1) % bound);
  const auto u = static_cast<VertexId>((cursor * 7 + 3) % bound);
  std::uint64_t sink = snap.partitionOf(cursor);
  sink += static_cast<std::uint64_t>(snap.routeCost(u, cursor) + 1);
  sink += snap.cutDegree(cursor);
  for (const VertexId nbr : snap.neighbors(cursor)) sink += nbr;
  return sink;
}
constexpr double kQueriesPerBundle = 4.0;

/// Reader threads querying the board during ingest.
constexpr std::size_t kReaders = 2;

/// Rounds an untraced run makes at least, whatever --seconds says. A churn
/// round can take as long as a whole short run, and a run whose round count
/// the clock picks would mix one-round and two-round figures. A traced run
/// always ends with its second untraced round.
constexpr std::size_t kMinRounds = 2;

// --------------------------------------------------------------- readers

/// The board readers query; a restore swaps in the restored service's board
/// under the next generation. While a crashed service is freed and restored,
/// readers answer from its last snapshot (`pinned`, no board).
struct BoardRef {
  std::uint64_t generation = 0;
  const SnapshotBoard* board = nullptr;
  SnapshotBoard::Ref pinned;

  [[nodiscard]] SnapshotBoard::Ref current() const {
    return board != nullptr ? board->current() : pinned;
  }
};

struct ReaderLog {
  std::vector<Sighting> sightings;
  LatencyHistogram latency;
  std::atomic<std::uint64_t> lastGeneration{0};
  std::atomic<std::uint64_t> lastEpoch{0};
  std::atomic<std::uint64_t> bundles{0};  ///< query bundles completed
  std::uint64_t sink = 0;
};

/// Reader threads querying whatever board `current` points at until stopped.
class Readers {
 public:
  Readers(std::size_t count, const BoardRef* first) {
    for (std::size_t r = 0; r < count; ++r) logs_.push_back(std::make_unique<ReaderLog>());
    current_.store(first);
    for (std::size_t r = 0; r < count; ++r) {
      threads_.emplace_back([this, r] { loop(*logs_[r]); });
    }
  }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;
  ~Readers() { stop(); }

  /// Points the readers at `next` and returns once none of them can still
  /// be reading the previous board, so the caller may free it. The bundle a
  /// reader has in flight may still use the old board; the one after it
  /// cannot (the counter and current_ are sequentially consistent).
  void switchTo(const BoardRef* next) {
    current_.store(next);
    for (const auto& log : logs_) {
      const std::uint64_t seen = log->bundles.load();
      while (log->bundles.load() < seen + 2) std::this_thread::yield();
    }
  }

  /// Waits (up to 2 s) until every reader has seen the current board's
  /// latest epoch, then stops and joins them.
  void finish() {
    const BoardRef* ref = current_.load();
    const std::uint64_t epoch = ref->current()->epoch();
    const std::int64_t deadline = nowNs() + 2'000'000'000;
    for (const auto& log : logs_) {
      while (nowNs() < deadline &&
             (log->lastGeneration.load() != ref->generation ||
              log->lastEpoch.load() < epoch)) {
        std::this_thread::yield();
      }
    }
    stop();
  }

  [[nodiscard]] std::vector<std::unique_ptr<ReaderLog>>& logs() { return logs_; }

 private:
  void stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  void loop(ReaderLog& log) {
    VertexId cursor = 0;
    std::uint64_t lastGeneration = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t lastEpoch = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      const BoardRef* ref = current_.load();
      const std::int64_t t0 = nowNs();
      const SnapshotBoard::Ref snap = ref->current();
      log.sink += queryBundle(*snap, cursor);
      const std::int64_t t1 = nowNs();
      log.latency.add(static_cast<double>(t1 - t0) / kQueriesPerBundle);
      if (ref->generation != lastGeneration || snap->epoch() != lastEpoch ||
          snap->torn()) {
        lastGeneration = ref->generation;
        lastEpoch = snap->epoch();
        log.sightings.push_back({ref->generation, snap->epoch(), snap->torn(),
                                 snap->stats().window, snap->k(),
                                 snap->stats().activeK, t0});
        log.lastGeneration.store(lastGeneration, std::memory_order_release);
        log.lastEpoch.store(lastEpoch, std::memory_order_release);
      }
      log.bundles.fetch_add(1);
    }
  }

  std::vector<std::unique_ptr<ReaderLog>> logs_;
  std::vector<std::thread> threads_;
  std::atomic<const BoardRef*> current_{nullptr};
  std::atomic<bool> stop_{false};
};

// ---------------------------------------------------------------- rounds

xdgp::api::Workload makeWorkload(const LiveInputs& in) {
  xdgp::api::Workload workload;
  workload.code = in.spec.name;
  workload.initial = in.initial;
  workload.stream = xdgp::graph::UpdateStream(in.events);
  workload.suggested = in.serve.stream;
  return workload;
}

WindowFacts factsOf(const WindowReport& w) {
  return {w.iterations, w.migrations, w.cutEdges};
}

/// What one round measured, common to untraced and traced rounds.
struct Round {
  std::int64_t runStartNs = 0;
  std::int64_t runEndNs = 0;
  std::int64_t crashNs = -1;
  std::vector<WindowReport> timeline;
  std::vector<std::vector<Sighting>> sightings;  ///< per reader
  LatencyHistogram latency;
  std::size_t failedWindows = 0;
  std::string error;  ///< what an operation of the round threw ("" = none)
};

void collectReaders(Readers& readers, Round& round) {
  for (auto& log : readers.logs()) {
    round.sightings.push_back(std::move(log->sightings));
    round.latency.merge(log->latency);
  }
}

/// First time any reader saw the snapshot published after window w, per w.
std::vector<std::int64_t> firstSeen(const Round& round, std::size_t windows) {
  std::vector<std::int64_t> seen(windows, -1);
  for (const auto& log : round.sightings) {
    for (const Sighting& s : log) {
      if (s.window == 0 || s.window > windows) continue;
      std::int64_t& slot = seen[s.window - 1];
      if (slot < 0 || s.ns < slot) slot = s.ns;
    }
  }
  return seen;
}

std::size_t directoryBytes(const std::string& dir) {
  std::size_t bytes = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

LiveOutcome outcomeOf(const xdgp::core::Engine& engine, const AssignmentSnapshot& snap,
                      const Round& round, std::size_t generated) {
  LiveOutcome out;
  const auto& g = engine.graph();
  out.graphAlive.assign(g.idBound(), 0);
  out.graphAdjacency.resize(g.idBound());
  for (std::size_t v = 0; v < g.idBound(); ++v) {
    const auto id = static_cast<VertexId>(v);
    if (!g.hasVertex(id)) continue;
    out.graphAlive[v] = 1;
    const auto nbrs = g.neighbors(id);
    out.graphAdjacency[v].assign(nbrs.begin(), nbrs.end());
  }
  out.assignment = engine.state().assignment();
  out.engineCutEdges = engine.state().cutEdges();
  out.loads = engine.state().loads();
  out.capacities = engine.capacity().capacities();
  out.active = engine.activeMask();
  out.snapPartition.resize(snap.idBound());
  out.snapNeighbors.resize(snap.idBound());
  out.snapCutDegree.resize(snap.idBound());
  for (std::size_t v = 0; v < snap.idBound(); ++v) {
    const auto id = static_cast<VertexId>(v);
    out.snapPartition[v] = snap.partitionOf(id);
    const auto nbrs = snap.neighbors(id);
    out.snapNeighbors[v].assign(nbrs.begin(), nbrs.end());
    out.snapCutDegree[v] = snap.cutDegree(id);
  }
  out.snapCutEdges = snap.stats().cutEdges;
  out.snapCutRatio = snap.stats().cutRatio;
  for (const WindowReport& w : round.timeline) out.drained += w.eventsDrained;
  out.generated = generated;
  out.readers = round.sightings;
  return out;
}

void runAllLiveChecks(const LiveOutcome& out, const ReplayGraph& replay,
                      const LiveSpec& spec, Failures& f) {
  checkGraph(out, replay, f);
  checkDrained(out, f);
  checkSnapshot(out, replay, f);
  checkCut(out, replay, f);
  checkCapacity(out, replay, f);
  checkReaders(out, f);
  if (spec.grow > 0) {
    checkSchedule(out, replay,
                  {spec.k, spec.grow, spec.growWindow, spec.shrinkWindow,
                   spec.shrinkIds},
                  f);
  }
}

/// An untraced round: the service's own loop, readers querying its board.
/// A scheduled crash is recovered in-process from the checkpoint directory.
struct ServiceRound {
  Round round;
  std::unique_ptr<PartitionService> service;  ///< the one that finished
};

void runServiceRound(const LiveInputs& in, const xdgp::serve::ServeOptions& options,
                     std::size_t readerCount, std::int64_t* constructedNs,
                     ServiceRound& out) {
  if (!options.checkpointDir.empty()) fs::remove_all(options.checkpointDir);
  out.service.reset(
      new PartitionService(makeWorkload(in), "HSH", in.adaptive, options));
  if (constructedNs != nullptr) *constructedNs = nowNs();
  // Readers go from the service's board to the crashed service's last
  // snapshot while that service is freed and restored, then to the restored
  // service's board: one service is alive at a time, as after a real crash.
  BoardRef refs[3] = {{0, &out.service->board(), nullptr}, {}, {}};
  std::optional<Readers> readers;
  if (readerCount > 0) readers.emplace(readerCount, &refs[0]);
  Round& round = out.round;
  round.runStartNs = nowNs();
  try {
    try {
      out.service->run();
    } catch (const xdgp::serve::InjectedCrash&) {
      round.crashNs = nowNs();
      refs[1] = {0, nullptr, out.service->snapshot()};
      if (readers) readers->switchTo(&refs[1]);
      out.service.reset();
      out.service.reset(new PartitionService(
          PartitionService::restore(options.checkpointDir, in.adaptive.threads)));
      refs[2] = {1, &out.service->board(), nullptr};
      if (readers) readers->switchTo(&refs[2]);
      out.service->run();
    }
  } catch (const std::exception& error) {
    round.error = error.what();
  }
  round.runEndNs = nowNs();
  if (readers) {
    readers->finish();
    collectReaders(*readers, round);
  }
  if (out.service) round.timeline = out.service->timeline().windows;
  for (const WindowReport& w : round.timeline) round.failedWindows += w.converged ? 0 : 1;
}

/// PartitionService::makeCheckpoint for the traced loop's own session.
xdgp::serve::Checkpoint makeCheckpointOf(const LiveInputs& in,
                                         const xdgp::serve::ServeOptions& options,
                                         const xdgp::api::Session& session,
                                         const std::vector<xdgp::graph::UpdateEvent>& events,
                                         const std::vector<WindowReport>& timeline) {
  const xdgp::core::Engine& engine = session.engine();
  const xdgp::core::AdaptiveOptions& adaptive = engine.options();
  xdgp::serve::Checkpoint cp;
  cp.workload = in.spec.name;
  cp.strategy = "HSH";
  cp.k = engine.k();
  cp.engine = engine.kind();
  cp.retired = engine.retiredPartitions();
  cp.lpaBalanceFactor = adaptive.lpaBalanceFactor;
  cp.lpaScoreEpsilon = adaptive.lpaScoreEpsilon;
  cp.lpaMigrationBudget = adaptive.lpaMigrationBudget;
  cp.seed = adaptive.seed;
  cp.capacityFactor = adaptive.capacityFactor;
  cp.willingness = adaptive.willingness;
  cp.convergenceWindow = adaptive.convergenceWindow;
  cp.enforceQuota = adaptive.enforceQuota;
  cp.balanceMode = adaptive.balanceMode;
  cp.maxIterations = options.maxIterations;
  cp.stream = options.stream;
  cp.nextWindow = timeline.size();
  cp.graph = engine.graph();
  cp.assignment = engine.state().assignment();
  cp.engineIteration = engine.iteration();
  cp.engineQuiet = engine.quietIterations();
  cp.engineLastActive = engine.lastActiveIteration();
  cp.capacities = engine.capacity().capacities();
  cp.events = events;
  cp.timeline = timeline;
  return cp;
}

/// Per-layer facts of one traced round that are not span durations.
struct LayerCounts {
  std::size_t eventsApplied = 0;
  std::size_t steps = 0;
  std::size_t migrations = 0;
  std::size_t compactions = 0;
  std::vector<double> snapshotBytes;
  std::vector<double> touchedAdjacency;
  std::vector<double> touchedAssignment;
  std::size_t growSeeded = 0;
  std::size_t drainSteps = 0;
  std::size_t drainMigrations = 0;
  std::size_t replayWindows = 0;
  double recoveryProbeSeconds = 0.0;  ///< read + restore at the crash window
  xdgp::core::MemoryReport memory;
};

/// A traced round: PartitionService::run and Session::streamWindow rebuilt
/// from the same public calls, with a span around each call. The crash
/// fault is not injected; at the crash window the traced loop times reading
/// and restoring the checkpoint the service would recover from.
struct TracedRound {
  Round round;
  LayerCounts counts;
  std::unique_ptr<xdgp::api::Session> session;
  std::unique_ptr<SnapshotBoard> board;
};

void runTracedRound(const LiveInputs& in, const xdgp::serve::ServeOptions& options,
                    std::size_t readerCount, Tracer& tracer, TracedRound& out) {
  if (!options.checkpointDir.empty()) fs::remove_all(options.checkpointDir);
  Tracer* t = &tracer;
  LayerCounts& counts = out.counts;
  xdgp::api::Workload workload = makeWorkload(in);
  const std::vector<xdgp::graph::UpdateEvent> events = workload.stream.events();
  {
    XBENCH_SPAN(t, "partition.initial");
    out.session = std::make_unique<xdgp::api::Session>(
        xdgp::api::Pipeline::fromGraph(std::move(workload.initial))
            .initial("HSH")
            .k(in.adaptive.k)
            .capacityFactor(in.adaptive.capacityFactor)
            .seed(in.adaptive.seed)
            .adaptive(in.adaptive)
            .maxIterations(options.maxIterations)
            .start());
  }
  xdgp::api::Session& session = *out.session;
  xdgp::core::Engine& engine = session.engine();
  xdgp::serve::SnapshotBuilder builder(options.snapshotOverlayFraction);
  out.board = std::make_unique<SnapshotBoard>();
  std::uint64_t epoch = 0;
  const auto publish = [&](const WindowReport* window, std::size_t nextWindow) {
    xdgp::serve::SnapshotStats stats;
    stats.window = nextWindow;
    stats.activeK = engine.activeK();
    if (window != nullptr) {
      stats.vertices = window->vertices;
      stats.edges = window->edges;
      stats.cutEdges = window->cutEdges;
      stats.cutRatio = window->cutRatio;
      stats.imbalance = window->balance.imbalance;
      stats.migrations = window->migrations;
      stats.eventsApplied = window->eventsApplied;
      stats.converged = window->converged;
    } else {
      stats.vertices = engine.graph().numVertices();
      stats.edges = engine.graph().numEdges();
      stats.cutEdges = engine.state().cutEdges();
      stats.cutRatio = engine.cutRatio();
      stats.converged = engine.converged();
    }
    std::optional<AssignmentSnapshot> snapshot;
    {
      XBENCH_SPAN(t, "serve.build", nextWindow);
      snapshot.emplace(builder.build(++epoch, engine.graph(),
                                     engine.state().assignment(), engine.k(),
                                     stats));
    }
    counts.compactions += builder.lastBuildCompacted() ? 1 : 0;
    counts.snapshotBytes.push_back(
        static_cast<double>(snapshot->stats().residentBytes));
    out.board->publish(std::move(*snapshot));
  };
  publish(nullptr, 0);

  BoardRef ref{0, out.board.get(), nullptr};
  std::optional<Readers> readers;
  if (readerCount > 0) readers.emplace(readerCount, &ref);
  Round& round = out.round;
  round.runStartNs = nowNs();
  // The engine's step belongs to its own layer: lpa for LpaEngine.
  const char* stepSpan =
      engine.kind() == xdgp::core::EngineKind::kLpa ? "lpa.step" : "core.step";
  try {
    const xdgp::api::StreamOptions& stream = options.stream;
    xdgp::api::Streamer streamer(xdgp::graph::UpdateStream(events), stream);
    std::size_t lastCheckpoint = 0;
    while (true) {
      std::optional<xdgp::api::WindowBatch> batch;
      {
        XBENCH_SPAN(t, "api.drain");
        batch = streamer.next();
      }
      if (!batch) break;
      const std::size_t index = batch->index;
      for (const auto& op : options.resizes) {
        if (op.window != index) continue;
        if (op.grow > 0) {
          XBENCH_SPAN(t, "lpa.grow", index);
          const std::size_t before = engine.totalMigrations();
          engine.growPartitions(op.grow);
          counts.growSeeded += engine.totalMigrations() - before;
        }
        if (!op.shrink.empty()) {
          XBENCH_SPAN(t, "lpa.shrink", index);
          engine.shrinkPartitions(op.shrink);
        }
      }
      WindowReport window;
      xdgp::core::TouchSet touched;
      {
        XBENCH_SPAN(t, "api.window", index);
        const std::int64_t windowStart = nowNs();
        window.index = index;
        window.start = batch->start;
        window.end = batch->end;
        window.eventsDrained = batch->drained;
        window.eventsExpired = batch->expired;
        const std::size_t migrationsBefore = engine.totalMigrations();
        {
          XBENCH_SPAN(t, "graph.apply", index);
          window.eventsApplied = session.applyUpdates(batch->events);
        }
        if (stream.rescaleEachWindow) {
          XBENCH_SPAN(t, "core.rescale", index);
          engine.rescaleCapacity();
        }
        if (stream.adapt) {
          const std::size_t cap = stream.maxIterationsPerWindow > 0
                                      ? stream.maxIterationsPerWindow
                                      : options.maxIterations;
          const std::size_t first = engine.iteration();
          while (!engine.converged() && engine.iteration() - first < cap) {
            XBENCH_SPAN(t, stepSpan, index);
            engine.step();
          }
          window.iterations = engine.iteration() - first;
          window.converged = engine.converged();
        } else {
          window.converged = false;
        }
        window.migrations = engine.totalMigrations() - migrationsBefore;
        window.vertices = engine.graph().numVertices();
        window.edges = engine.graph().numEdges();
        window.cutEdges = engine.state().cutEdges();
        window.cutRatio = engine.cutRatio();
        window.balance =
            xdgp::metrics::balanceReport(engine.state(), engine.activeMask());
        touched = engine.drainTouched();
        window.wallSeconds = seconds(windowStart, nowNs());
      }
      counts.eventsApplied += window.eventsApplied;
      counts.steps += window.iterations;
      counts.migrations += window.migrations;
      counts.touchedAdjacency.push_back(static_cast<double>(touched.adjacency.size()));
      counts.touchedAssignment.push_back(static_cast<double>(touched.assignment.size()));
      if (in.spec.grow > 0 && index == in.spec.shrinkWindow) {
        counts.drainSteps = window.iterations;
        counts.drainMigrations = window.migrations;
      }
      builder.note(touched);
      if (index == in.spec.crashWindow && !options.checkpointDir.empty()) {
        // Where the service would crash: time what its recovery reads.
        const std::int64_t probeStart = nowNs();
        {
          XBENCH_SPAN(t, "serve.checkpoint_read", index);
          (void)xdgp::serve::readCheckpoint(options.checkpointDir);
        }
        {
          XBENCH_SPAN(t, "serve.restore", index);
          (void)PartitionService::restore(options.checkpointDir, in.adaptive.threads);
        }
        counts.replayWindows = index - lastCheckpoint;
        counts.recoveryProbeSeconds = seconds(probeStart, nowNs());
      }
      round.failedWindows += window.converged ? 0 : 1;
      round.timeline.push_back(window);
      publish(&window, index + 1);
      const std::size_t next = index + 1;
      const bool cadence = options.checkpointEvery > 0 && next % options.checkpointEvery == 0;
      if (!options.checkpointDir.empty() && cadence) {
        std::optional<xdgp::serve::Checkpoint> cp;
        {
          XBENCH_SPAN(t, "serve.make_checkpoint", index);
          cp.emplace(makeCheckpointOf(in, options, session, events, round.timeline));
        }
        {
          XBENCH_SPAN(t, "serve.checkpoint_write", index);
          xdgp::serve::writeCheckpoint(*cp, options.checkpointDir);
        }
        lastCheckpoint = next;
      }
    }
    if (!options.checkpointDir.empty()) {
      std::optional<xdgp::serve::Checkpoint> cp;
      {
        XBENCH_SPAN(t, "serve.make_checkpoint", round.timeline.size());
        cp.emplace(makeCheckpointOf(in, options, session, events, round.timeline));
      }
      XBENCH_SPAN(t, "serve.checkpoint_write", round.timeline.size());
      xdgp::serve::writeCheckpoint(*cp, options.checkpointDir);
    }
  } catch (const std::exception& error) {
    round.error = error.what();
  }
  round.runEndNs = nowNs();
  if (readers) {
    readers->finish();
    collectReaders(*readers, round);
  }
  counts.memory = engine.memoryReport();
}

/// The run's figure from one figure per round: the 10th percentile over the
/// rounds of a duration, the 90th of a rate. Neighbours on a shared host only
/// ever add time, in bursts of seconds that leave some rounds of every run
/// untouched; those rounds measure the program, and a median would flip
/// between them and the disturbed ones from run to run.
double leastDisturbed(std::vector<double> perRound, bool higherIsBetter) {
  return quantile(std::move(perRound), higherIsBetter ? 0.9 : 0.1);
}

/// Median latency of query bundles on an idle board (no ingest running).
double idleQueryNs(const SnapshotBoard& board) {
  LatencyHistogram latency;
  VertexId cursor = 0;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < (1u << 20); ++i) {
    const std::int64_t t0 = nowNs();
    const SnapshotBoard::Ref snap = board.current();
    sink += queryBundle(*snap, cursor);
    latency.add(static_cast<double>(nowNs() - t0) / kQueriesPerBundle);
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return latency.quantile(0.5);
}

}  // namespace

// ------------------------------------------------------------ the runner

LiveOutcome sampleOutcome(const LiveSpec& spec, std::uint64_t seed) {
  const LiveInputs in = makeInputs(spec, seed);
  ServiceRound sr;
  runServiceRound(in, in.serve, kReaders, nullptr, sr);
  return outcomeOf(sr.service->session().engine(), *sr.service->snapshot(), sr.round,
                   in.events.size());
}

RunResult runWorkload(const RunOptions& options) {
  RunResult result;
  const LiveSpec spec = options.spec ? *options.spec : specFor(options.workload);
  LiveInputs in = makeInputs(spec, options.seed);
  const std::string ckptDir =
      options.workDir + "/ckpt-" + spec.name + "-" + std::to_string(::getpid());
  xdgp::serve::ServeOptions serveOptions = in.serve;
  if (spec.checkpointEvery > 0) serveOptions.checkpointDir = ckptDir;
  Failures& f = result.failures;
  const std::size_t windowOps = spec.windows;

  std::int64_t setupDoneNs = 0;
  const std::int64_t measureStart = nowNs();
  const auto elapsed = [&] { return seconds(measureStart, nowNs()); };

  std::vector<Round> rounds;       // untraced
  std::vector<TracedRound> traced;  // traced
  std::vector<Tracer> tracers;
  std::unique_ptr<PartitionService> lastService;
  std::vector<double> recovery;
  std::size_t checkpointBytes = 0;
  Tracer restartTracer;
  Tracer* rt = options.trace ? &restartTracer : nullptr;
  xdgp::serve::ServeOptions baseline = serveOptions;
  if (options.trace) baseline.faults = xdgp::serve::FaultPlan();
  tracers.reserve(64);
  traced.reserve(64);

  // An operation that throws ends the run: it counts as failed, and so does
  // every operation of its round that did not complete and converge. The
  // error is reported as a check failure and the result line still prints.
  bool aborted = false;
  const auto account = [&](const Round& round, std::size_t roundOps) {
    result.attempted += roundOps;
    if (round.error.empty()) {
      result.failed += round.failedWindows;
      return;
    }
    result.failed += roundOps - (round.timeline.size() - round.failedWindows);
    f.push_back(spec.name + " round " + std::to_string(rounds.size() + traced.size()) +
                " threw: " + round.error);
    aborted = true;
  };

  // Every untraced round ends with a restart: the durable crash recovery,
  // or a shutdown checkpoint of the round's service and a timed restore.
  // The restored service replaces the round's, so one service is alive at a
  // time (as when a service restarts in a fresh process), and the output
  // checks run on the restored one.
  const auto restart = [&](const Round& round) {
    if (spec.crashWindow != LiveSpec::kNoCrash) {
      checkpointBytes = directoryBytes(ckptDir);
      if (options.trace) return;  // the traced loop probes the crash point
      const std::int64_t back = firstSeen(round, spec.windows)[spec.crashWindow];
      if (round.crashNs < 0 || back < 0) {
        f.push_back("recovery: the crashed window was never seen published");
      } else {
        recovery.push_back(seconds(round.crashNs, back));
      }
      return;
    }
    result.attempted += 1;
    const std::size_t cut = lastService->snapshot()->stats().cutEdges;
    const xdgp::metrics::Assignment assignment =
        lastService->session().engine().state().assignment();
    try {
      fs::remove_all(ckptDir);
      std::optional<xdgp::serve::Checkpoint> cp;
      {
        XBENCH_SPAN(rt, "serve.make_checkpoint");
        cp.emplace(lastService->makeCheckpoint());
      }
      {
        XBENCH_SPAN(rt, "serve.checkpoint_write");
        xdgp::serve::writeCheckpoint(*cp, ckptDir);
      }
      cp.reset();
      lastService.reset();
      checkpointBytes = directoryBytes(ckptDir);
      if (options.trace) {
        XBENCH_SPAN(rt, "serve.checkpoint_read");
        (void)xdgp::serve::readCheckpoint(ckptDir);
      }
      const std::int64_t t0 = nowNs();
      {
        XBENCH_SPAN(rt, "serve.restore");
        lastService.reset(new PartitionService(
            PartitionService::restore(ckptDir, in.adaptive.threads)));
      }
      recovery.push_back(seconds(t0, nowNs()));
    } catch (const std::exception& error) {
      result.failed += 1;
      f.push_back(std::string("restart threw: ") + error.what());
      aborted = true;
      return;
    }
    if (lastService->snapshot()->stats().cutEdges != cut ||
        lastService->session().engine().state().assignment() != assignment) {
      f.push_back("recovery: the restarted service does not hold the checkpointed state");
    }
  };
  // Untraced rounds after the first run fresh inputs from seeds derived from
  // --seed, so a run's medians average over several graphs and streams (LPA
  // convergence varies by seed far more than by run). Traced runs keep one
  // input set and interleave untraced, traced, ..., untraced rounds: each
  // traced round must reproduce its untraced neighbours' trajectory, and is
  // timed against the warm untraced round after it (the first round of a
  // process pays the cold page faults).
  const auto serviceRound = [&] {
    lastService.reset();  // the previous round's, before this round's inputs
    if (!rounds.empty() && !options.trace) {
      in = makeInputs(spec, xdgp::util::Rng::splitmix64(options.seed + rounds.size()));
    }
    ServiceRound sr;
    runServiceRound(in, options.trace ? baseline : serveOptions, kReaders,
                    rounds.empty() ? &setupDoneNs : nullptr, sr);
    const bool crashes = spec.crashWindow != LiveSpec::kNoCrash && !options.trace;
    account(sr.round, windowOps + (crashes ? 1 : 0));
    rounds.push_back(std::move(sr.round));
    lastService = std::move(sr.service);
    if (!aborted) restart(rounds.back());
  };
  do {
    serviceRound();
    if (options.trace && !aborted) {
      tracers.emplace_back();
      traced.emplace_back();
      runTracedRound(in, serveOptions, kReaders, tracers.back(), traced.back());
      account(traced.back().round, windowOps);
    }
  } while (!aborted && (elapsed() < options.seconds ||
                        (!options.trace && rounds.size() < kMinRounds)));
  if (options.trace && !aborted) serviceRound();
  if (aborted) {
    fs::remove_all(ckptDir);
    return result;
  }
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    const auto seen = firstSeen(round, spec.windows);
    std::cerr << spec.name << " round: run " << seconds(round.runStartNs, round.runEndNs)
              << " s, first window published after "
              << (seen.front() < 0 ? -1.0 : seconds(round.runStartNs, seen.front()))
              << " s (" << (round.timeline.empty() ? 0 : round.timeline.front().iterations)
              << " iterations), restart " << (r < recovery.size() ? recovery[r] : -1.0)
              << " s\n";
  }
  const std::size_t peakRss = peakRssBytes();

  // --- output checks --------------------------------------------------------
  ReplayGraph replay(in.initial);
  replay.apply(in.events);
  const xdgp::core::Engine& finalEngine = lastService->session().engine();
  runAllLiveChecks(outcomeOf(finalEngine, *lastService->snapshot(), rounds.back(),
                             in.events.size()),
                   replay, spec, f);
  std::vector<WindowFacts> reference;
  for (const WindowReport& w : rounds.back().timeline) reference.push_back(factsOf(w));
  if (spec.crashWindow != LiveSpec::kNoCrash && !options.trace) {
    // The uninterrupted run of the same inputs, for bit-identical recovery.
    ServiceRound uninterrupted;
    xdgp::serve::ServeOptions plain = in.serve;
    plain.faults = xdgp::serve::FaultPlan();
    runServiceRound(in, plain, 0, nullptr, uninterrupted);
    if (!uninterrupted.round.error.empty()) {
      f.push_back("recovery: the uninterrupted run threw: " + uninterrupted.round.error);
    } else {
      checkRecovery(finalEngine.state().assignment(),
                    uninterrupted.service->session().engine().state().assignment(), f);
      std::vector<WindowFacts> plainFacts;
      for (const WindowReport& w : uninterrupted.round.timeline) {
        plainFacts.push_back(factsOf(w));
      }
      checkTrajectory(plainFacts, reference, f);
    }
  }
  for (std::size_t r = 0; r < traced.size(); ++r) {
    std::vector<WindowFacts> facts;
    for (const WindowReport& w : traced[r].round.timeline) facts.push_back(factsOf(w));
    checkTrajectory(reference, facts, f);
    runAllLiveChecks(outcomeOf(traced[r].session->engine(), *traced[r].board->current(),
                               traced[r].round, in.events.size()),
                     replay, spec, f);
  }

  // --- end-to-end metrics ---------------------------------------------------
  Metrics& m = result.metrics;
  if (!options.trace) {
    // Every timing is taken per round first (latency and freshness
    // quantiles too), then over the rounds: the ingest path's by
    // leastDisturbed, the readers' by the median. A round's query figures
    // pool millions of queries, so the host's bursts are already averaged in
    // them; what moves them from round to round is where the two readers'
    // threads run relative to each other, which is not one-sided.
    std::vector<double> converge, throughput, freshP50, freshP90, queryP50, queryP99, qps;
    for (const Round& round : rounds) {
      const auto seen = firstSeen(round, spec.windows);
      if (seen.front() < 0 || seen.back() < 0) {
        f.push_back("readers: the first or last window was never seen published");
        continue;
      }
      converge.push_back(seconds(round.runStartNs, seen.front()));
      std::size_t events = 0;
      for (std::size_t w = 1; w < round.timeline.size(); ++w) {
        events += round.timeline[w].eventsDrained;
      }
      throughput.push_back(static_cast<double>(events) /
                           seconds(seen.front(), seen.back()));
      std::vector<double> freshness;
      std::int64_t prev = seen.front();
      for (std::size_t w = 1; w < seen.size(); ++w) {
        if (seen[w] < 0) continue;
        freshness.push_back(seconds(prev, seen[w]));
        prev = seen[w];
      }
      freshP50.push_back(quantile(freshness, 0.5));
      freshP90.push_back(quantile(freshness, 0.9));
      queryP50.push_back(round.latency.quantile(0.5));
      queryP99.push_back(round.latency.quantile(0.99));
      qps.push_back(static_cast<double>(round.latency.count()) * kQueriesPerBundle /
                    seconds(round.runStartNs, round.runEndNs));
      std::cerr << spec.name << " round figures: events/s " << throughput.back()
                << ", freshness p50 " << freshP50.back() << " p90 " << freshP90.back()
                << " s, query p50 " << queryP50.back() << " p99 " << queryP99.back()
                << " ns, queries/s " << qps.back() << "\n";
    }
    std::vector<double> migrations, cutRatio;
    for (const Round& round : rounds) {
      std::size_t moved = 0;
      for (const WindowReport& w : round.timeline) moved += w.migrations;
      migrations.push_back(static_cast<double>(moved));
      cutRatio.push_back(round.timeline.back().cutRatio);
    }
    m["setup_s"] = {seconds(options.startNs, setupDoneNs), "s"};
    m["converge_s"] = {leastDisturbed(converge, false), "s"};
    m["events_per_s"] = {leastDisturbed(throughput, true), "events/s"};
    m["freshness_p50_s"] = {leastDisturbed(freshP50, false), "s"};
    m["freshness_p90_s"] = {leastDisturbed(freshP90, false), "s"};
    m["query_p50_ns"] = {median(queryP50), "ns"};
    m["query_p99_ns"] = {median(queryP99), "ns"};
    m["queries_per_s"] = {median(qps), "queries/s"};
    m["recovery_s"] = {leastDisturbed(recovery, false), "s"};
    m["checkpoint_bytes"] = {static_cast<double>(checkpointBytes), "bytes"};
    m["cut_ratio"] = {median(cutRatio), "ratio"};
    m["migrations"] = {median(migrations), "count"};
    m["peak_rss_bytes"] = {static_cast<double>(peakRss), "bytes"};
  } else {
    // --- per-layer metrics from the traced rounds -----------------------
    std::vector<double> initial, apply, steps, rescale, window, build, write,
        makeCp, read, restore, grow, shrink, overhead, stepsPerWindow, spans;
    std::vector<double> applied, stepCount, migrations, compactions, snapshotBytes,
        touchedAdj, touchedAsg;
    std::map<std::string, std::vector<double>> self;
    // The engine's steps, step count and migrations belong to its layer
    // (core for the greedy engine, lpa for LpaEngine); the other layer's
    // figures read 0.
    const std::string engineLayer =
        spec.engine == xdgp::core::EngineKind::kLpa ? "lpa" : "core";
    for (std::size_t r = 0; r < traced.size(); ++r) {
      const Tracer& tr = tracers[r];
      const LayerCounts& c = traced[r].counts;
      const auto append = [](std::vector<double>& into, std::vector<double> from) {
        into.insert(into.end(), from.begin(), from.end());
      };
      append(initial, tr.durations("partition.initial"));
      append(apply, tr.durations("graph.apply"));
      append(steps, tr.durations(engineLayer + ".step"));
      append(grow, tr.durations("lpa.grow"));
      append(shrink, tr.durations("lpa.shrink"));
      append(rescale, tr.durations("core.rescale"));
      append(window, tr.durations("api.window"));
      append(build, tr.durations("serve.build"));
      append(write, tr.durations("serve.checkpoint_write"));
      append(makeCp, tr.durations("serve.make_checkpoint"));
      append(read, tr.durations("serve.checkpoint_read"));
      append(restore, tr.durations("serve.restore"));
      for (const WindowReport& w : traced[r].round.timeline) {
        if (w.index > 0) stepsPerWindow.push_back(static_cast<double>(w.iterations));
      }
      applied.push_back(static_cast<double>(c.eventsApplied));
      stepCount.push_back(static_cast<double>(c.steps));
      migrations.push_back(static_cast<double>(c.migrations));
      compactions.push_back(static_cast<double>(c.compactions));
      append(snapshotBytes, c.snapshotBytes);
      append(touchedAdj, c.touchedAdjacency);
      append(touchedAsg, c.touchedAssignment);
      spans.push_back(static_cast<double>(tr.spans().size()));
      for (const auto& [layer, secs] : tr.selfSecondsByLayer()) self[layer].push_back(secs);
      // Against the untraced round that ran right after it (warm); the
      // recovery probe at the crash window is work the untraced round does
      // not do.
      const double tracedWall =
          seconds(traced[r].round.runStartNs, traced[r].round.runEndNs) -
          c.recoveryProbeSeconds;
      const double plainWall =
          seconds(rounds[r + 1].runStartNs, rounds[r + 1].runEndNs);
      overhead.push_back(tracedWall / plainWall - 1.0);
    }
    {
      // The shutdown checkpoint and restart (churn, elastic).
      const auto append = [](std::vector<double>& into, std::vector<double> from) {
        into.insert(into.end(), from.begin(), from.end());
      };
      append(write, restartTracer.durations("serve.checkpoint_write"));
      append(makeCp, restartTracer.durations("serve.make_checkpoint"));
      append(read, restartTracer.durations("serve.checkpoint_read"));
      append(restore, restartTracer.durations("serve.restore"));
    }

    // The pregel layer on the same inputs: the initial graph from a hash
    // partitioning over the final active partitions, the stream ingested in
    // the service's windows, then supersteps while the background
    // partitioner migrates vertices with messages in flight.
    Tracer probeTracer;
    const std::size_t probeK = traced.back().session->engine().activeK();
    const PregelProbe probe = runPregelProbe(
        in.initial,
        xdgp::api::initialAssignment(in.initial, "HSH", probeK,
                                     in.adaptive.capacityFactor, options.seed),
        in.events, in.serve.stream, probeK, options.seed, kProbeSupersteps, 2,
        &probeTracer);
    checkPregel(probe.outcome, tunkRankFixedPoint(replay, 0.05, 64), f);
    const double queryNs = idleQueryNs(*traced.back().board);

    const LayerCounts& last = traced.back().counts;
    const auto count = [&](const std::string& name, double value) {
      m[name] = {value, "count"};
    };
    const auto secs = [&](const std::string& name, double value) { m[name] = {value, "s"}; };
    secs("gen.graph_s", in.genGraphSeconds);
    secs("gen.stream_s", in.genStreamSeconds);
    secs("partition.initial_s", smoothQuantile(initial, 0.5));
    secs("graph.apply_s", smoothQuantile(apply, 0.5));
    count("graph.events_applied", median(applied));
    m["graph.adjacency_bytes"] = {static_cast<double>(last.memory.adjacencyArenaBytes), "bytes"};
    m["graph.adjacency_slack_bytes"] = {static_cast<double>(last.memory.adjacencySlackBytes), "bytes"};
    for (const std::string layer : {"core", "lpa"}) {
      const bool mine = layer == engineLayer;
      secs(layer + ".step_s", mine ? smoothQuantile(steps, 0.5) : 0.0);
      secs(layer + ".step_p90_s", mine ? smoothQuantile(steps, 0.9) : 0.0);
      count(layer + ".steps", mine ? median(stepCount) : 0.0);
      count(layer + ".steps_per_window", mine ? median(stepsPerWindow) : 0.0);
      count(layer + ".migrations", mine ? median(migrations) : 0.0);
    }
    secs("core.rescale_s", smoothQuantile(rescale, 0.5));
    m["core.engine_bytes"] = {static_cast<double>(last.memory.engineBytes), "bytes"};
    secs("lpa.grow_s", median(grow));
    secs("lpa.shrink_s", median(shrink));
    count("lpa.grow_seeded", static_cast<double>(last.growSeeded));
    count("lpa.drain_steps", static_cast<double>(last.drainSteps));
    count("lpa.drain_migrations", static_cast<double>(last.drainMigrations));
    secs("api.window_s", smoothQuantile(window, 0.5));
    secs("api.window_p90_s", smoothQuantile(window, 0.9));
    count("api.touched_adjacency", median(touchedAdj));
    count("api.touched_assignment", median(touchedAsg));
    secs("serve.build_s", smoothQuantile(build, 0.5));
    secs("serve.build_p90_s", smoothQuantile(build, 0.9));
    count("serve.compactions", median(compactions));
    m["serve.snapshot_bytes"] = {median(snapshotBytes), "bytes"};
    m["serve.query_ns"] = {queryNs, "ns"};
    secs("serve.make_checkpoint_s", median(makeCp));
    secs("serve.checkpoint_write_s", median(write));
    m["serve.checkpoint_write_bytes"] = {static_cast<double>(checkpointBytes), "bytes"};
    secs("serve.checkpoint_read_s", median(read));
    secs("serve.restore_s", median(restore));
    count("serve.replay_windows", static_cast<double>(last.replayWindows));
    const auto superstep = probeTracer.durations("pregel.superstep");
    secs("pregel.superstep_s", smoothQuantile(superstep, 0.5));
    secs("pregel.superstep_p90_s", smoothQuantile(superstep, 0.9));
    secs("pregel.apply_s", smoothQuantile(probeTracer.durations("pregel.apply"), 0.5));
    std::size_t local = 0, remote = 0;
    for (std::size_t s = 0; s < probe.outcome.localMessages.size(); ++s) {
      local += probe.outcome.localMessages[s];
      remote += probe.outcome.remoteMessages[s];
    }
    count("pregel.local_messages", static_cast<double>(local));
    count("pregel.remote_messages", static_cast<double>(remote));
    count("pregel.migrations_executed", static_cast<double>(probe.migrationsExecuted));
    for (const char* layer : {"partition", "graph", "core", "lpa", "api", "serve"}) {
      secs(std::string(layer) + ".self_s", median(self[layer]));
    }
    secs("gen.self_s", in.genGraphSeconds + in.genStreamSeconds);
    secs("pregel.self_s", probeTracer.selfSecondsByLayer()["pregel"]);
    m["trace.overhead"] = {median(overhead), "ratio"};
    count("trace.spans", median(spans));

    // The span file: every traced round, the restart, and the probe.
    fs::create_directories(options.workDir + "/trace");
    const std::string stem = options.workDir + "/trace/" + spec.name + "-seed" +
                             std::to_string(options.seed);
    tracers.back().write(stem + ".round.jsonl");
    restartTracer.write(stem + ".restart.jsonl");
    probeTracer.write(stem + ".pregel.jsonl");
  }
  fs::remove_all(ckptDir);
  return result;
}

}  // namespace xbench
