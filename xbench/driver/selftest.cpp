// The benchmark's own tests:
//   - the input generator gives identical inputs for one seed and different
//     inputs for two seeds;
//   - every output check passes on a real run and fails when one value of
//     the program's output is corrupted;
//   - shrunken workloads run end to end (untraced and traced) with every
//     check passing;
//   - a window that throws counts as failed and the run still returns.
//
//   xbench_selftest        (exit code 0 = all passed)

#include <functional>
#include <iostream>
#include <string>

#include "api/partitioner_registry.h"
#include "checks.h"
#include "inputs.h"
#include "live.h"
#include "pregel_probe.h"
#include "replay.h"

using namespace xbench;

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  } else {
    std::cout << "ok: " << what << "\n";
  }
}

LiveSpec tiny(const std::string& workload) {
  LiveSpec spec = specFor(workload);
  if (spec.vertices > 0) {
    spec.vertices = 3'000;
    spec.windows = 12;
    spec.eventsPerWindow = 300;
    if (spec.crashWindow != LiveSpec::kNoCrash) {
      spec.checkpointEvery = 4;
      spec.crashWindow = 10;
    }
  } else {
    spec.subscribers = 1'500;
    spec.windows = 30;
    spec.windowSpan = 4.0 / 30.0;
    spec.growWindow = 10;
    spec.shrinkWindow = 20;
  }
  return spec;
}

bool sameInputs(const LiveInputs& a, const LiveInputs& b) {
  if (a.events != b.events || a.initial.idBound() != b.initial.idBound() ||
      a.initial.numEdges() != b.initial.numEdges()) {
    return false;
  }
  bool same = true;
  a.initial.forEachVertex([&](xdgp::graph::VertexId v) {
    const auto na = a.initial.neighbors(v);
    const auto nb = b.initial.neighbors(v);
    same = same && std::equal(na.begin(), na.end(), nb.begin(), nb.end());
  });
  return same;
}

void testInputs() {
  for (const char* workload : {"churn", "durable", "elastic"}) {
    const LiveSpec spec = tiny(workload);
    const LiveInputs a = makeInputs(spec, 7);
    const LiveInputs b = makeInputs(spec, 7);
    const LiveInputs c = makeInputs(spec, 8);
    expect(sameInputs(a, b), std::string(workload) + ": one seed, identical inputs");
    expect(!sameInputs(a, c), std::string(workload) + ": two seeds, different inputs");
    expect(!a.events.empty(), std::string(workload) + ": the stream is not empty");
  }
  const LiveInputs churn = makeInputs(tiny("churn"), 7);
  const std::vector<std::size_t> mix = eventMix(churn.events);
  expect(mix[0] > 0 && mix[1] > 0 && mix[2] > 0 && mix[3] > 0,
         "churn: the stream mixes vertex joins/leaves and edge adds/removals");
}

/// Runs `check` on the unmodified outcome (must pass) and after `corrupt`
/// (must fail).
void expectCatches(const std::string& name, LiveOutcome outcome,
                   const std::function<void(LiveOutcome&)>& corrupt,
                   const std::function<void(const LiveOutcome&, Failures&)>& check) {
  Failures clean;
  check(outcome, clean);
  expect(clean.empty(), name + ": passes on the program's output" +
                            (clean.empty() ? "" : " (" + clean.front() + ")"));
  corrupt(outcome);
  Failures dirty;
  check(outcome, dirty);
  expect(!dirty.empty(), name + ": fails on a corrupted value");
}

/// First alive id with at least one neighbour.
xdgp::graph::VertexId someVertex(const LiveOutcome& out) {
  for (std::size_t v = 0; v < out.graphAlive.size(); ++v) {
    if (out.graphAlive[v] != 0 && !out.graphAdjacency[v].empty()) {
      return static_cast<xdgp::graph::VertexId>(v);
    }
  }
  return 0;
}

void testLiveChecks() {
  const LiveSpec spec = tiny("churn");
  const LiveInputs in = makeInputs(spec, 3);
  ReplayGraph replay(in.initial);
  replay.apply(in.events);
  const LiveOutcome out = sampleOutcome(spec, 3);
  const auto v = someVertex(out);
  using O = LiveOutcome;
  const auto graph = [&](const O& o, Failures& f) { checkGraph(o, replay, f); };
  const auto snapshot = [&](const O& o, Failures& f) { checkSnapshot(o, replay, f); };
  const auto cut = [&](const O& o, Failures& f) { checkCut(o, replay, f); };
  const auto capacity = [&](const O& o, Failures& f) { checkCapacity(o, replay, f); };

  expectCatches("graph/alive", out, [&](O& o) { o.graphAlive[v] = 0; }, graph);
  expectCatches("graph/neighbours", out,
                [&](O& o) { o.graphAdjacency[v].pop_back(); }, graph);
  expectCatches("drained", out, [](O& o) { --o.drained; },
                [](const O& o, Failures& f) { checkDrained(o, f); });
  expectCatches("snapshot/partitionOf", out,
                [&](O& o) { o.snapPartition[v] = (o.snapPartition[v] + 1) % 9; },
                snapshot);
  expectCatches("snapshot/neighbors", out,
                [&](O& o) { o.snapNeighbors[v].pop_back(); }, snapshot);
  expectCatches("snapshot/cutDegree", out, [&](O& o) { ++o.snapCutDegree[v]; },
                snapshot);
  expectCatches("cut/engine", out, [](O& o) { ++o.engineCutEdges; }, cut);
  expectCatches("cut/snapshot", out, [](O& o) { ++o.snapCutEdges; }, cut);
  expectCatches("cut/ratio", out, [](O& o) { o.snapCutRatio += 1e-6; }, cut);
  expectCatches("capacity/loads", out, [](O& o) { ++o.loads[0]; }, capacity);
  expectCatches("capacity/limit", out,
                [](O& o) { o.capacities[0] = o.loads[0] - 1; }, capacity);
  const auto readers = [](const O& o, Failures& f) { checkReaders(o, f); };
  expectCatches("readers/torn", out,
                [](O& o) { o.readers[0].back().torn = true; }, readers);
  expectCatches("readers/epoch", out,
                [](O& o) {
                  auto& log = o.readers[0];
                  std::swap(log[log.size() - 1].epoch, log[log.size() - 2].epoch);
                },
                readers);

  const std::vector<WindowFacts> facts = {{40, 100, 7}, {31, 3, 8}};
  std::vector<WindowFacts> bent = facts;
  ++bent[1].migrations;
  Failures same, differ;
  checkTrajectory(facts, facts, same);
  checkTrajectory(facts, bent, differ);
  expect(same.empty() && !differ.empty(), "trajectory: catches one migration off");

  xdgp::metrics::Assignment recovered = out.assignment;
  Failures equal, unequal;
  checkRecovery(recovered, out.assignment, equal);
  recovered[v] = (recovered[v] + 1) % 9;
  checkRecovery(recovered, out.assignment, unequal);
  expect(equal.empty() && !unequal.empty(), "recovery: catches one vertex off");
}

void testScheduleCheck() {
  const LiveSpec spec = tiny("elastic");
  const LiveInputs in = makeInputs(spec, 5);
  ReplayGraph replay(in.initial);
  replay.apply(in.events);
  const LiveOutcome out = sampleOutcome(spec, 5);
  const KSchedule schedule{spec.k, spec.grow, spec.growWindow, spec.shrinkWindow,
                           spec.shrinkIds};
  const auto check = [&](const LiveOutcome& o, Failures& f) {
    checkSchedule(o, replay, schedule, f);
  };
  const auto v = someVertex(out);
  expectCatches("schedule/retired", out,
                [&](LiveOutcome& o) { o.assignment[v] = spec.shrinkIds.front(); },
                check);
  expectCatches("schedule/activeK", out,
                [](LiveOutcome& o) { ++o.readers[0].back().activeK; }, check);
}

void testPregelCheck() {
  const LiveSpec spec = tiny("churn");
  const LiveInputs in = makeInputs(spec, 9);
  ReplayGraph replay(in.initial);
  replay.apply(in.events);
  const PregelProbe probe =
      runPregelProbe(in.initial, xdgp::api::initialAssignment(in.initial, "HSH", 4, 1.1, 9),
                     in.events, in.serve.stream, 4, 9, kProbeSupersteps, 2, nullptr);
  const std::vector<double> fixed = tunkRankFixedPoint(replay, 0.05, 64);
  const auto run = [&](PregelOutcome o, const std::function<void(PregelOutcome&)>& bend,
                       const std::string& name) {
    Failures clean, dirty;
    checkPregel(o, fixed, clean);
    bend(o);
    checkPregel(o, fixed, dirty);
    expect(clean.empty() && !dirty.empty(),
           name + ": passes on the program's output, fails corrupted" +
               (clean.empty() ? "" : " (" + clean.front() + ")"));
  };
  expect(probe.migrationsExecuted > 0, "pregel: the probe migrates vertices");
  run(probe.outcome, [](PregelOutcome& o) { o.lostMessages = 1; }, "pregel/lost");
  run(probe.outcome, [](PregelOutcome& o) { ++o.remoteMessages[3]; }, "pregel/messages");
  run(probe.outcome, [](PregelOutcome& o) {
        for (double& x : o.values) {
          if (x > 0) {
            x *= 1.0 + 1e-6;
            break;
          }
        }
      },
      "pregel/tunkrank");
}

void testEndToEnd() {
  for (const char* workload : {"churn", "durable", "elastic"}) {
    for (const bool trace : {false, true}) {
      RunOptions options;
      options.workload = workload;
      options.seed = 11;
      options.seconds = 0.0;
      options.trace = trace;
      options.workDir = ".bench_build/selftest";
      options.spec = tiny(workload);
      const RunResult result = runWorkload(options);
      const std::string name = std::string(workload) + (trace ? " traced" : "");
      expect(result.failures.empty(),
             name + ": every check passes" +
                 (result.failures.empty() ? "" : " (" + result.failures.front() + ")"));
      expect(result.attempted > 0 && result.failed == 0,
             name + ": windows attempted, none failed");
      expect(!result.metrics.empty(), name + ": metrics reported");
    }
  }
}

void testThrowingWindow() {
  // Retiring a partition that does not exist throws at the shrink window:
  // that window and the ones after it fail, the run still returns a result.
  RunOptions options;
  options.workload = "elastic";
  options.seed = 11;
  options.seconds = 0.0;
  options.workDir = ".bench_build/selftest";
  options.spec = tiny("elastic");
  options.spec->shrinkIds = {99};
  const RunResult result = runWorkload(options);
  expect(!result.failures.empty(), "throwing window: reported as a check failure");
  expect(result.attempted == options.spec->windows &&
             result.failed == options.spec->windows - options.spec->shrinkWindow,
         "throwing window: it and the windows after it count as failed");
}

}  // namespace

int main() {
  testInputs();
  testLiveChecks();
  testScheduleCheck();
  testPregelCheck();
  testEndToEnd();
  testThrowingWindow();
  std::cout << (failures == 0 ? "all self-tests passed" : "self-tests FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}
