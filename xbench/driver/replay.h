#pragma once

// The benchmark's own replay of an event stream: a plain per-vertex
// adjacency-vector graph that applies UpdateEvents with the documented
// ingest semantics, written independently of graph::DynamicGraph and
// core::PartitionedRuntime so the output checks have something to compare
// the program's final graph against.

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/update_stream.h"
#include "metrics/cuts.h"

namespace xbench {

class ReplayGraph {
 public:
  using VertexId = xdgp::graph::VertexId;

  /// Starts from a copy of `initial`'s vertices and edges.
  explicit ReplayGraph(const xdgp::graph::DynamicGraph& initial);

  /// Applies events in order:
  ///   AddVertex    the id becomes alive;
  ///   RemoveVertex the id and its incident edges disappear;
  ///   AddEdge      both endpoints become alive, then the edge is added
  ///                unless it is a self-loop or already present;
  ///   RemoveEdge   the edge disappears if both endpoints are alive.
  void apply(const std::vector<xdgp::graph::UpdateEvent>& events);

  [[nodiscard]] std::size_t idBound() const noexcept { return alive_.size(); }
  [[nodiscard]] bool alive(VertexId v) const noexcept {
    return v < alive_.size() && alive_[v] != 0;
  }
  [[nodiscard]] const std::vector<VertexId>& neighbors(VertexId v) const {
    return adjacency_[v];
  }
  [[nodiscard]] std::size_t numVertices() const noexcept { return vertices_; }
  [[nodiscard]] std::size_t numEdges() const noexcept { return edges_; }

  /// Brute-force cut: edges whose endpoints sit on different partitions.
  [[nodiscard]] std::size_t cutEdges(const xdgp::metrics::Assignment& a) const;

 private:
  void ensure(VertexId v);
  void revive(VertexId v);
  bool unlink(VertexId from, VertexId to);

  std::vector<std::uint8_t> alive_;
  std::vector<std::vector<VertexId>> adjacency_;
  std::size_t vertices_ = 0;
  std::size_t edges_ = 0;
};

}  // namespace xbench
