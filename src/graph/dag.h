// Directed acyclic graph substrate.
//
// Nodes are dense indices 0..size()-1; the task model layer attaches its
// per-node attributes (WCET, type) in parallel arrays. The class stores
// forward and backward adjacency in compressed sparse row (CSR) form and
// validates acyclicity on demand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace rtpool::graph {

/// Dense node identifier within one graph.
using NodeId = std::uint32_t;

/// Directed edge (from, to).
struct Edge {
  NodeId from;
  NodeId to;
  bool operator==(const Edge&) const = default;
};

/// Thrown by the bulk constructor for the edge it rejects: `index` is that
/// edge's position in the input span, so a reader can name its source line.
class EdgeError : public std::invalid_argument {
 public:
  EdgeError(const char* what, std::size_t edge_index)
      : std::invalid_argument(what), index(edge_index) {}
  std::size_t index;
};

/// DAG in CSR form: per direction, one offsets array (size()+1 entries) and
/// one packed adjacency array (edge_count() entries), so a graph owns four
/// vectors whatever its size. Every node lists its successors and its
/// predecessors in edge insertion order; Kahn's order, the region flood, the
/// simulator's release order and every report follow that order.
///
/// Invariants: node ids are < size(); duplicate edges and self-loops are
/// rejected. Acyclicity is *not* enforced at construction; call
/// `is_acyclic()` or let algorithms that require topological order throw
/// `CycleError`.
class Dag {
 public:
  Dag() = default;
  explicit Dag(std::size_t node_count)
      : succ_off_(node_count + 1, 0), pred_off_(node_count + 1, 0) {}

  /// Build the graph from `edges` in one O(V+E) pass (a stable counting
  /// sort). Throws EdgeError for the first edge, in input order, that is
  /// out of range, a self-loop or a repeat of an earlier edge — the edge at
  /// which inserting them one by one with add_edge would throw.
  Dag(std::size_t node_count, std::span<const Edge> edges);

  std::size_t size() const { return succ_off_.empty() ? 0 : succ_off_.size() - 1; }
  std::size_t edge_count() const { return succ_.size(); }

  /// Append a new node; returns its id.
  NodeId add_node();

  /// Add edge from -> to: O(V+E), for hand-built graphs (tests, examples).
  /// Builders of whole graphs collect an edge list for the bulk constructor.
  /// Throws std::invalid_argument on self-loop, duplicate edge, or
  /// out-of-range ids.
  void add_edge(NodeId from, NodeId to);

  /// True if the edge exists (O(out-degree of `from`)).
  bool has_edge(NodeId from, NodeId to) const;

  // Adjacency accessors are inline: analysis inner loops call them per
  // edge visit (millions of times per bench run).
  std::span<const NodeId> successors(NodeId v) const {
    check_node(v);
    return {succ_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
  }
  std::span<const NodeId> predecessors(NodeId v) const {
    check_node(v);
    return {pred_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
  }

  std::size_t out_degree(NodeId v) const { return successors(v).size(); }
  std::size_t in_degree(NodeId v) const { return predecessors(v).size(); }

  /// Nodes without incoming / outgoing edges.
  std::vector<NodeId> sources() const;
  std::vector<NodeId> sinks() const;

  /// All edges in insertion-independent (from, to) order.
  std::vector<Edge> edges() const;

  bool is_acyclic() const;

 private:
  void check_node(NodeId v) const {
    // v < size(), also for a default-constructed graph (no offsets).
    if (std::size_t{v} + 1 >= succ_off_.size())
      throw std::invalid_argument("Dag: node id out of range");
  }

  std::vector<std::size_t> succ_off_;  ///< successors(v) = succ_[off[v], off[v+1]).
  std::vector<NodeId> succ_;
  std::vector<std::size_t> pred_off_;  ///< predecessors(v), likewise in pred_.
  std::vector<NodeId> pred_;
};

/// Thrown by algorithms that require acyclicity when the graph has a cycle.
class CycleError : public std::invalid_argument {
 public:
  CycleError() : std::invalid_argument("graph contains a cycle") {}
};

}  // namespace rtpool::graph
