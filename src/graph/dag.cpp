#include "graph/dag.h"

#include <algorithm>
#include <stdexcept>

#include "graph/algorithms.h"

namespace rtpool::graph {

namespace {

constexpr const char* kOutOfRange = "Dag: node id out of range";
constexpr const char* kSelfLoop = "Dag: self-loop rejected";
constexpr const char* kDuplicate = "Dag: duplicate edge rejected";

/// Stable counting sort of `edges` by `key` into CSR form: adj holds each
/// edge's `value`, grouped by key in input order, and off[v] is where v's
/// group starts (off[n] == edges.size()).
void counting_sort(std::size_t n, std::span<const Edge> edges, NodeId Edge::*key,
                   NodeId Edge::*value, std::vector<std::size_t>& off,
                   std::vector<NodeId>& adj) {
  off.assign(n + 1, 0);
  for (const Edge& e : edges) ++off[e.*key];
  std::size_t end = 0;
  for (std::size_t v = 0; v < n; ++v) {
    end += off[v];
    off[v] = end;
  }
  off[n] = end;
  adj.resize(edges.size());
  // Filling each group back to front from its end leaves off[v] at the
  // group's start and the group in input order.
  for (std::size_t i = edges.size(); i-- > 0;)
    adj[--off[edges[i].*key]] = edges[i].*value;
}

/// Position in `edges` of the first edge that repeats an earlier one, or
/// edges.size(); (off, adj) is the successor CSR built from `edges`.
std::size_t first_repeat(std::span<const Edge> edges,
                         const std::vector<std::size_t>& off,
                         const std::vector<NodeId>& adj) {
  // lister[w] = 1 + the last node whose successor list held w, so a second
  // w in the same list is a repeat; flag its position.
  const std::size_t n = off.size() - 1;
  std::vector<std::size_t> lister(n, 0);
  std::vector<bool> repeat;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t p = off[u]; p < off[u + 1]; ++p) {
      if (lister[adj[p]] == u + 1) {
        if (repeat.empty()) repeat.resize(adj.size());
        repeat[p] = true;
      }
      lister[adj[p]] = u + 1;
    }
  }
  if (repeat.empty()) return edges.size();
  // The k-th edge out of u, in input order, sits at off[u] + k.
  std::vector<std::size_t> next(off.begin(), off.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (repeat[next[edges[i].from]++]) return i;
  return edges.size();
}

/// Append w to v's list, shifting the lists after it by one slot.
void insert(std::vector<std::size_t>& off, std::vector<NodeId>& adj, NodeId v,
            NodeId w) {
  adj.insert(adj.begin() + static_cast<std::ptrdiff_t>(off[v + 1]), w);
  for (std::size_t u = v + 1; u < off.size(); ++u) ++off[u];
}

}  // namespace

Dag::Dag(std::size_t node_count, std::span<const Edge> edges) {
  std::size_t bad = edges.size();
  const char* why = nullptr;
  for (std::size_t i = 0; i < edges.size() && why == nullptr; ++i) {
    const Edge& e = edges[i];
    if (e.from >= node_count || e.to >= node_count)
      why = kOutOfRange;
    else if (e.from == e.to)
      why = kSelfLoop;
    if (why != nullptr) bad = i;
  }
  // A repeat before `bad` is the earlier rejection.
  const std::span<const Edge> valid = edges.first(bad);
  counting_sort(node_count, valid, &Edge::from, &Edge::to, succ_off_, succ_);
  if (const std::size_t repeat = first_repeat(valid, succ_off_, succ_); repeat < bad)
    throw EdgeError(kDuplicate, repeat);
  if (why != nullptr) throw EdgeError(why, bad);
  counting_sort(node_count, valid, &Edge::to, &Edge::from, pred_off_, pred_);
}

NodeId Dag::add_node() {
  const auto id = static_cast<NodeId>(size());
  if (succ_off_.empty()) {
    succ_off_.push_back(0);
    pred_off_.push_back(0);
  }
  succ_off_.push_back(succ_.size());
  pred_off_.push_back(pred_.size());
  return id;
}

void Dag::add_edge(NodeId from, NodeId to) {
  check_node(from);
  check_node(to);
  if (from == to) throw std::invalid_argument(kSelfLoop);
  if (has_edge(from, to)) throw std::invalid_argument(kDuplicate);
  insert(succ_off_, succ_, from, to);
  insert(pred_off_, pred_, to, from);
}

bool Dag::has_edge(NodeId from, NodeId to) const {
  check_node(to);
  const auto s = successors(from);
  return std::find(s.begin(), s.end(), to) != s.end();
}

std::vector<NodeId> Dag::sources() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v)
    if (pred_off_[v] == pred_off_[v + 1]) out.push_back(v);
  return out;
}

std::vector<NodeId> Dag::sinks() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v)
    if (succ_off_[v] == succ_off_[v + 1]) out.push_back(v);
  return out;
}

std::vector<Edge> Dag::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (NodeId v = 0; v < size(); ++v) {
    const std::size_t first = out.size();
    for (NodeId w : successors(v)) out.push_back({v, w});
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const Edge& a, const Edge& b) { return a.to < b.to; });
  }
  return out;
}

bool Dag::is_acyclic() const {
  try {
    (void)topological_order(*this);
    return true;
  } catch (const CycleError&) {
    return false;
  }
}

}  // namespace rtpool::graph
