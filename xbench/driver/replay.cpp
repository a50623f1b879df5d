#include "replay.h"

#include <algorithm>

namespace xbench {

using xdgp::graph::UpdateEvent;

ReplayGraph::ReplayGraph(const xdgp::graph::DynamicGraph& initial)
    : alive_(initial.idBound(), 0), adjacency_(initial.idBound()) {
  initial.forEachVertex([&](VertexId v) {
    alive_[v] = 1;
    ++vertices_;
  });
  initial.forEachEdge([&](VertexId u, VertexId v) {
    adjacency_[u].push_back(v);
    adjacency_[v].push_back(u);
    ++edges_;
  });
}

void ReplayGraph::ensure(VertexId v) {
  if (v >= alive_.size()) {
    alive_.resize(v + 1, 0);
    adjacency_.resize(v + 1);
  }
}

void ReplayGraph::revive(VertexId v) {
  ensure(v);
  if (alive_[v] == 0) {
    alive_[v] = 1;
    ++vertices_;
  }
}

bool ReplayGraph::unlink(VertexId from, VertexId to) {
  std::vector<VertexId>& list = adjacency_[from];
  const auto it = std::find(list.begin(), list.end(), to);
  if (it == list.end()) return false;
  *it = list.back();
  list.pop_back();
  return true;
}

void ReplayGraph::apply(const std::vector<UpdateEvent>& events) {
  for (const UpdateEvent& e : events) {
    switch (e.kind) {
      case UpdateEvent::Kind::kAddVertex:
        revive(e.u);
        break;
      case UpdateEvent::Kind::kRemoveVertex:
        if (!alive(e.u)) break;
        for (const VertexId nbr : adjacency_[e.u]) {
          unlink(nbr, e.u);
          --edges_;
        }
        adjacency_[e.u].clear();
        alive_[e.u] = 0;
        --vertices_;
        break;
      case UpdateEvent::Kind::kAddEdge: {
        revive(e.u);
        revive(e.v);
        if (e.u == e.v) break;
        std::vector<VertexId>& list = adjacency_[e.u];
        if (std::find(list.begin(), list.end(), e.v) != list.end()) break;
        list.push_back(e.v);
        adjacency_[e.v].push_back(e.u);
        ++edges_;
        break;
      }
      case UpdateEvent::Kind::kRemoveEdge:
        if (!alive(e.u) || !alive(e.v) || e.u == e.v) break;
        if (unlink(e.u, e.v)) {
          unlink(e.v, e.u);
          --edges_;
        }
        break;
    }
  }
}

std::size_t ReplayGraph::cutEdges(const xdgp::metrics::Assignment& a) const {
  const auto part = [&a](std::size_t v) {
    return v < a.size() ? a[v] : xdgp::graph::kNoPartition;
  };
  std::size_t cut = 0;
  for (std::size_t u = 0; u < adjacency_.size(); ++u) {
    for (const VertexId v : adjacency_[u]) {
      if (u < v && part(u) != part(v)) ++cut;
    }
  }
  return cut;
}

}  // namespace xbench
