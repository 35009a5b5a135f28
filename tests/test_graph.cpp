// Unit tests for src/graph: Dag, algorithms, reachability, dot export.
#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <vector>

#include "graph/algorithms.h"
#include "graph/dag.h"
#include "graph/dot.h"
#include "graph/reachability.h"
#include "util/rng.h"

namespace rtpool::graph {
namespace {

Dag diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  Dag d(4);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

TEST(DagTest, AddNodesAndEdges) {
  Dag d;
  EXPECT_EQ(d.size(), 0u);
  const NodeId a = d.add_node();
  const NodeId b = d.add_node();
  d.add_edge(a, b);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.edge_count(), 1u);
  EXPECT_TRUE(d.has_edge(a, b));
  EXPECT_FALSE(d.has_edge(b, a));
  EXPECT_EQ(d.out_degree(a), 1u);
  EXPECT_EQ(d.in_degree(b), 1u);
}

TEST(DagTest, RejectsSelfLoopDuplicateAndBadIds) {
  Dag d(2);
  d.add_edge(0, 1);
  EXPECT_THROW(d.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(d.add_edge(0, 1), std::invalid_argument);
  EXPECT_THROW(d.add_edge(0, 5), std::invalid_argument);
  EXPECT_THROW(d.successors(9), std::invalid_argument);
}

TEST(DagTest, BulkBuildMatchesIncrementalOrder) {
  // Random graph with edges inserted in shuffled order: both builds must
  // list every node's successors and predecessors in insertion order.
  util::Rng rng(11);
  constexpr std::size_t kNodes = 40;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < kNodes; ++u)
    for (NodeId v = u + 1; v < kNodes; ++v)
      if (rng.bernoulli(0.2)) edges.push_back({u, v});
  rng.shuffle(edges);

  Dag incremental(kNodes);
  for (const Edge& e : edges) incremental.add_edge(e.from, e.to);
  const Dag bulk(kNodes, edges);
  ASSERT_EQ(bulk.size(), kNodes);
  ASSERT_EQ(bulk.edge_count(), edges.size());
  for (NodeId v = 0; v < kNodes; ++v) {
    std::vector<NodeId> succ_in_order;
    std::vector<NodeId> pred_in_order;
    for (const Edge& e : edges) {
      if (e.from == v) succ_in_order.push_back(e.to);
      if (e.to == v) pred_in_order.push_back(e.from);
    }
    const auto as_vector = [](std::span<const NodeId> s) {
      return std::vector<NodeId>(s.begin(), s.end());
    };
    EXPECT_EQ(as_vector(bulk.successors(v)), succ_in_order) << v;
    EXPECT_EQ(as_vector(bulk.predecessors(v)), pred_in_order) << v;
    EXPECT_EQ(as_vector(incremental.successors(v)), succ_in_order) << v;
    EXPECT_EQ(as_vector(incremental.predecessors(v)), pred_in_order) << v;
  }
  EXPECT_EQ(bulk.edges(), incremental.edges());
}

TEST(DagTest, BulkBuildRejectsTheEdgeAddEdgeWould) {
  const auto rejected = [](std::size_t nodes, std::vector<Edge> edges) {
    try {
      const Dag d(nodes, edges);
    } catch (const EdgeError& e) {
      return e.index;
    }
    return edges.size();
  };
  EXPECT_EQ(rejected(3, {{0, 1}, {1, 1}, {1, 2}}), 1u);          // self-loop
  EXPECT_EQ(rejected(3, {{0, 1}, {1, 2}, {0, 2}, {0, 1}}), 3u);  // repeat
  EXPECT_EQ(rejected(3, {{0, 1}, {2, 3}}), 1u);                  // id out of range
  EXPECT_EQ(rejected(0, {{0, 0}}), 0u);
  // The first offender in input order wins, whatever its kind.
  EXPECT_EQ(rejected(3, {{0, 1}, {0, 1}, {2, 2}}), 1u);
  EXPECT_EQ(rejected(3, {{0, 1}, {2, 2}, {0, 1}}), 1u);
  EXPECT_EQ(rejected(3, {{1, 2}, {0, 1}, {0, 2}, {1, 2}, {0, 1}}), 3u);
  EXPECT_THROW(Dag(2, std::vector<Edge>{{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_EQ(rejected(3, {{0, 1}, {1, 2}, {0, 2}}), 3u);  // accepted

  const Dag empty(5, std::vector<Edge>{});
  EXPECT_EQ(empty.size(), 5u);
  EXPECT_EQ(empty.edge_count(), 0u);
  EXPECT_EQ(empty.sources().size(), 5u);
  EXPECT_THROW(empty.successors(5), std::invalid_argument);
  EXPECT_THROW(empty.predecessors(5), std::invalid_argument);
}

TEST(DagTest, AddNodeAfterBulkBuildKeepsAdjacency) {
  Dag d(3, std::vector<Edge>{{0, 2}, {0, 1}});
  const NodeId extra = d.add_node();
  d.add_edge(extra, 0);
  d.add_edge(1, extra);
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(std::vector<NodeId>(d.successors(0).begin(), d.successors(0).end()),
            (std::vector<NodeId>{2, 1}));
  EXPECT_EQ(std::vector<NodeId>(d.predecessors(0).begin(), d.predecessors(0).end()),
            (std::vector<NodeId>{3}));
  EXPECT_TRUE(d.has_edge(1, 3));
  EXPECT_FALSE(d.is_acyclic());
}

TEST(DagTest, SourcesAndSinks) {
  const Dag d = diamond();
  EXPECT_EQ(d.sources(), (std::vector<NodeId>{0}));
  EXPECT_EQ(d.sinks(), (std::vector<NodeId>{3}));
}

TEST(DagTest, EdgesSorted) {
  const Dag d = diamond();
  const auto edges = d.edges();
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[3], (Edge{2, 3}));
}

TEST(DagTest, AcyclicDetection) {
  Dag d(3);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  EXPECT_TRUE(d.is_acyclic());
  d.add_edge(2, 0);
  EXPECT_FALSE(d.is_acyclic());
}

TEST(TopologicalOrderTest, RespectsEdges) {
  const Dag d = diamond();
  const auto order = topological_order(d);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const Edge& e : d.edges()) EXPECT_LT(pos[e.from], pos[e.to]);
}

TEST(TopologicalOrderTest, ThrowsOnCycle) {
  Dag d(2);
  d.add_edge(0, 1);
  d.add_edge(1, 0);
  EXPECT_THROW(topological_order(d), CycleError);
}

TEST(LongestPathTest, Diamond) {
  const Dag d = diamond();
  const std::vector<double> w{1.0, 10.0, 2.0, 1.0};
  const auto result = longest_path(d, w);
  EXPECT_DOUBLE_EQ(result.length, 12.0);
  EXPECT_EQ(result.path, (std::vector<NodeId>{0, 1, 3}));
}

TEST(LongestPathTest, SingleNodeAndEmpty) {
  Dag d(1);
  const auto r = longest_path(d, {7.5});
  EXPECT_DOUBLE_EQ(r.length, 7.5);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0}));

  Dag empty;
  const auto e = longest_path(empty, {});
  EXPECT_DOUBLE_EQ(e.length, 0.0);
  EXPECT_TRUE(e.path.empty());
}

TEST(LongestPathTest, WeightMismatchThrows) {
  const Dag d = diamond();
  EXPECT_THROW(longest_path(d, {1.0}), std::invalid_argument);
}

TEST(LongestPathTest, PerNodeTable) {
  const Dag d = diamond();
  const std::vector<double> w{1.0, 10.0, 2.0, 1.0};
  const auto table = longest_path_to(d, w);
  EXPECT_DOUBLE_EQ(table[0], 1.0);
  EXPECT_DOUBLE_EQ(table[1], 11.0);
  EXPECT_DOUBLE_EQ(table[2], 3.0);
  EXPECT_DOUBLE_EQ(table[3], 12.0);
}

TEST(TotalWeightTest, Sums) {
  EXPECT_DOUBLE_EQ(total_weight({1.0, 2.5, 3.5}), 7.0);
  EXPECT_DOUBLE_EQ(total_weight({}), 0.0);
}

TEST(ConnectivityTest, WeaklyConnected) {
  EXPECT_TRUE(is_weakly_connected(diamond()));
  Dag d(3);
  d.add_edge(0, 1);  // node 2 isolated
  EXPECT_FALSE(is_weakly_connected(d));
  Dag empty;
  EXPECT_TRUE(is_weakly_connected(empty));
  Dag one(1);
  EXPECT_TRUE(is_weakly_connected(one));
}

TEST(ReachabilityTest, Diamond) {
  const Dag d = diamond();
  const Reachability r(d);
  EXPECT_TRUE(r.reaches(0, 3));
  EXPECT_TRUE(r.reaches(0, 1));
  EXPECT_FALSE(r.reaches(3, 0));
  EXPECT_FALSE(r.reaches(1, 2));
  EXPECT_TRUE(r.concurrent(1, 2));
  EXPECT_FALSE(r.concurrent(0, 3));
  EXPECT_FALSE(r.concurrent(1, 1));
  EXPECT_EQ(r.ancestors(3).count(), 3u);
  EXPECT_EQ(r.descendants(0).count(), 3u);
}

TEST(ReachabilityTest, MatchesBruteForceOnRandomDags) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 30;
    Dag d(n);
    // Random DAG: edges only forward in id order.
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.12)) d.add_edge(i, j);
    const Reachability r(d);

    // Brute force: DFS per node.
    for (NodeId s = 0; s < n; ++s) {
      std::vector<bool> seen(n, false);
      std::vector<NodeId> stack{s};
      while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        for (NodeId w : d.successors(v)) {
          if (!seen[w]) {
            seen[w] = true;
            stack.push_back(w);
          }
        }
      }
      for (NodeId t = 0; t < n; ++t) {
        if (t == s) continue;
        EXPECT_EQ(r.reaches(s, t), seen[t]) << "s=" << s << " t=" << t;
      }
    }
  }
}

TEST(ReachabilityTest, UnorderedMaskMatchesDefinition) {
  // unordered_mask(v) = all u != v with neither u ⤳ v nor v ⤳ u — i.e.
  // exactly the nodes `concurrent` with v.
  util::Rng rng(4047);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 40;
    Dag d(n);
    for (NodeId i = 0; i < n; ++i)
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.1)) d.add_edge(i, j);
    const Reachability r(d);
    util::DynamicBitset mask;  // scratch, resized by the first call
    for (NodeId v = 0; v < n; ++v) {
      r.unordered_mask(v, mask);
      ASSERT_EQ(mask.size(), n);
      for (NodeId u = 0; u < n; ++u) {
        const bool expected = u != v && !r.reaches(u, v) && !r.reaches(v, u);
        EXPECT_EQ(mask.test(u), expected) << "v=" << v << " u=" << u;
        EXPECT_EQ(mask.test(u), r.concurrent(u, v)) << "v=" << v << " u=" << u;
      }
    }
  }
}

TEST(LongestPathTest, LengthOnlyKernelMatchesFullDp) {
  // longest_path_length (cached-order, scratch-buffer variant) must be
  // bit-identical to longest_path().length on random weighted DAGs.
  util::Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 25;
    Dag d(n);
    std::vector<double> w(n);
    for (NodeId i = 0; i < n; ++i) {
      w[i] = rng.uniform(0.5, 7.0);
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.15)) d.add_edge(i, j);
    }
    const std::vector<NodeId> order = topological_order(d);
    std::vector<double> scratch;
    EXPECT_EQ(longest_path_length(d, order, w, scratch),
              longest_path(d, w).length)
        << "trial=" << trial;
  }
}

TEST(LongestPathTest, MatchesBruteForceOnRandomDags) {
  // Exhaustive path enumeration on small random DAGs must agree with the
  // DP longest-path (both length and that the returned path is realizable).
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 10;
    Dag d(n);
    std::vector<double> w(n);
    for (NodeId i = 0; i < n; ++i) {
      w[i] = rng.uniform(1.0, 9.0);
      for (NodeId j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.25)) d.add_edge(i, j);
    }

    // Brute force: DFS over all paths from every node.
    double best = 0.0;
    std::function<void(NodeId, double)> dfs = [&](NodeId v, double acc) {
      best = std::max(best, acc + w[v]);
      for (NodeId s : d.successors(v)) dfs(s, acc + w[v]);
    };
    for (NodeId v = 0; v < n; ++v) {
      if (d.in_degree(v) == 0) dfs(v, 0.0);
    }

    const auto result = longest_path(d, w);
    EXPECT_NEAR(result.length, best, 1e-9) << "trial=" << trial;

    // The returned path must be realizable and sum to the length.
    double sum = 0.0;
    for (std::size_t k = 0; k < result.path.size(); ++k) {
      sum += w[result.path[k]];
      if (k > 0) {
        EXPECT_TRUE(d.has_edge(result.path[k - 1], result.path[k]));
      }
    }
    EXPECT_NEAR(sum, result.length, 1e-9);
  }
}

TEST(DotTest, RendersNodesAndEdges) {
  const Dag d = diamond();
  const std::string dot = to_dot(d, {"src", "a", "b", "snk"}, "g");
  EXPECT_NE(dot.find("digraph g {"), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"src\"]"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3;"), std::string::npos);
}

TEST(DotTest, EscapesQuotes) {
  Dag d(1);
  const std::string dot = to_dot(d, {"a\"b"});
  EXPECT_NE(dot.find("a\\\"b"), std::string::npos);
}

TEST(DotTest, LabelCountMismatchThrows) {
  const Dag d = diamond();
  EXPECT_THROW(to_dot(d, {"only-one"}), std::invalid_argument);
}

}  // namespace
}  // namespace rtpool::graph
