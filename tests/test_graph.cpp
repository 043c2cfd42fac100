#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

TEST(Graph, AddEdgeRejectsDuplicatesAndLoops) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // same edge, reversed
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_THROW(g.add_edge(0, 9), std::out_of_range);
}

TEST(Graph, NeighborsAndDegree) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(Graph, ComplementEdges) {
  Graph g = path_graph(4);  // edges 01, 12, 23
  const auto comp = g.complement_edges();
  EXPECT_EQ(comp.size(), 3u);  // 02, 03, 13
  for (const auto& [u, v] : comp) EXPECT_FALSE(g.has_edge(u, v));
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.connected());
  EXPECT_TRUE(Graph().connected());
}

TEST(Graph, InducedSubgraph) {
  Graph g = complete_graph(5);
  const std::vector<Graph::Vertex> keep{0, 2, 4};
  const Graph sub = g.induced_subgraph(keep);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 3u);  // K3
}

// Replays `g`'s edge list through plain add_edge calls on an unreserved
// graph: the order every builder must reproduce.
Graph plain_rebuild(const Graph& g) {
  Graph plain(g.num_vertices());
  for (const auto& [u, v] : g.edges()) plain.add_edge(u, v);
  return plain;
}

TEST(Graph, ReserveChangesNoVertexEdgeOrOrder) {
  Rng rng(3);
  const Graph g = random_gnm(40, 200, rng);
  Graph reserved(g.num_vertices());
  std::vector<std::size_t> degrees(g.num_vertices());
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  reserved.reserve(degrees, g.num_edges());
  for (const auto& [u, v] : g.edges()) reserved.add_edge(v, u);
  EXPECT_TRUE(reserved == g);
  EXPECT_TRUE(plain_rebuild(g) == g);
  // Short or empty degree lists reserve less and change nothing either.
  Graph partial(3);
  partial.reserve(std::vector<std::size_t>{5}, 1);
  partial.reserve({}, 0);
  EXPECT_TRUE(partial.add_edge(2, 0));
  EXPECT_EQ(partial.neighbors(0).size(), 1u);
}

TEST(Graph, InducedSubgraphMatchesPlainAddEdgeBuild) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_gnm(30, 120, rng);
    std::vector<Graph::Vertex> keep;
    for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) {
      if (rng.bernoulli(0.6)) keep.push_back(v);
    }
    if (trial % 2 == 1) rng.shuffle(keep);  // non-monotone renumbering
    std::vector<std::int64_t> remap(g.num_vertices(), -1);
    for (std::size_t i = 0; i < keep.size(); ++i) {
      remap[keep[i]] = static_cast<std::int64_t>(i);
    }
    Graph plain(keep.size());
    for (const auto& [u, v] : g.edges()) {
      if (remap[u] >= 0 && remap[v] >= 0) {
        plain.add_edge(static_cast<Graph::Vertex>(remap[u]),
                       static_cast<Graph::Vertex>(remap[v]));
      }
    }
    EXPECT_TRUE(g.induced_subgraph(keep) == plain) << "trial " << trial;
  }
}

TEST(UnionFind, UniteAndCount) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.find(0), uf.find(2));
  EXPECT_NE(uf.find(0), uf.find(4));
}

TEST(Generators, CirculantDegreeAndEdges) {
  const Graph g = circulant_graph(10, std::size_t{4});
  EXPECT_EQ(g.num_vertices(), 10u);
  for (Graph::Vertex v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(g.num_edges(), 20u);
  EXPECT_THROW(circulant_graph(10, std::size_t{3}), std::invalid_argument);
}

TEST(Generators, VertexScalingStructure) {
  // 3 vertices -> one triangle; each extra triangle adds 3 vertices, 5 edges.
  EXPECT_EQ(vertex_scaling_graph(3).num_edges(), 3u);
  const Graph g = vertex_scaling_graph(12);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_EQ(g.num_edges(), 3u + 3u * 5u);
  EXPECT_TRUE(g.connected());
  EXPECT_THROW(vertex_scaling_graph(4), std::invalid_argument);
  EXPECT_THROW(vertex_scaling_graph(0), std::invalid_argument);
}

TEST(Generators, EdgeScalingStartsWithFourTriangles) {
  const Graph g0 = edge_scaling_graph(0);
  EXPECT_EQ(g0.num_vertices(), 12u);
  EXPECT_EQ(g0.num_edges(), 12u);
  EXPECT_TRUE(clique_coverable(g0, 4));
  // The paper's starting point: 18 edges (12 + 6 connectors).
  const Graph g6 = edge_scaling_graph(6);
  EXPECT_EQ(g6.num_edges(), 18u);
  // Saturates at the complete graph.
  const Graph gmax = edge_scaling_graph(1000);
  EXPECT_EQ(gmax.num_edges(), 66u);
}

TEST(Generators, RandomGnmCounts) {
  Rng rng(1);
  const Graph g = random_gnm(20, 35, rng);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 35u);
  EXPECT_THROW(random_gnm(4, 10, rng), std::invalid_argument);
}

TEST(Generators, RandomConnectedGnmIsConnected) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_connected_gnm(15, 20, rng);
    EXPECT_TRUE(g.connected());
    EXPECT_EQ(g.num_edges(), 20u);
  }
  EXPECT_THROW(random_connected_gnm(10, 5, rng), std::invalid_argument);
}

TEST(Generators, BasicFamilies) {
  EXPECT_EQ(complete_graph(6).num_edges(), 15u);
  EXPECT_EQ(cycle_graph(5).num_edges(), 5u);
  EXPECT_EQ(path_graph(5).num_edges(), 4u);
  EXPECT_EQ(star_graph(5).num_edges(), 4u);
  EXPECT_EQ(grid_graph(3, 4).num_edges(), 3u * 3u + 2u * 4u);
}

TEST(Generators, RegionMapIsPlanarish) {
  Rng rng(3);
  const Graph g = region_map_graph(4, 4, 0.5, rng);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_GE(g.num_edges(), 24u);           // base grid edges
  EXPECT_TRUE(k_colorable(g, 4));          // stays 4-colorable
}

TEST(Algorithms, VertexCoverChecks) {
  const Graph g = path_graph(4);
  std::vector<bool> cover{false, true, true, false};
  EXPECT_TRUE(is_vertex_cover(g, cover));
  cover[1] = false;
  EXPECT_FALSE(is_vertex_cover(g, cover));
}

TEST(Algorithms, MinimumVertexCoverKnownValues) {
  EXPECT_EQ(minimum_vertex_cover_size(path_graph(4)), 2u);
  EXPECT_EQ(minimum_vertex_cover_size(cycle_graph(5)), 3u);
  EXPECT_EQ(minimum_vertex_cover_size(complete_graph(5)), 4u);
  EXPECT_EQ(minimum_vertex_cover_size(star_graph(6)), 1u);
  // The paper's 5-vertex running example (Fig 2): a-b, a-c, b-c, c-d, d-e.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  EXPECT_EQ(minimum_vertex_cover_size(g), 3u);
}

TEST(Algorithms, MaxCutKnownValues) {
  EXPECT_EQ(maximum_cut_size(path_graph(4)), 3u);
  EXPECT_EQ(maximum_cut_size(cycle_graph(5)), 4u);   // odd cycle: n-1
  EXPECT_EQ(maximum_cut_size(cycle_graph(6)), 6u);   // even cycle: n
  EXPECT_EQ(maximum_cut_size(complete_graph(4)), 4u);
  EXPECT_EQ(maximum_cut_size(Graph(3)), 0u);
}

TEST(Algorithms, CutSize) {
  const Graph g = cycle_graph(4);
  std::vector<bool> side{true, false, true, false};
  EXPECT_EQ(cut_size(g, side), 4u);
}

TEST(Algorithms, ColoringChecks) {
  const Graph g = cycle_graph(5);
  EXPECT_FALSE(k_colorable(g, 2));
  EXPECT_TRUE(k_colorable(g, 3));
  EXPECT_EQ(chromatic_number(g), 3);
  EXPECT_EQ(chromatic_number(complete_graph(4)), 4);
  EXPECT_EQ(chromatic_number(Graph(3)), 1);

  std::vector<int> colors{0, 1, 0, 1, 2};
  EXPECT_TRUE(is_proper_coloring(g, colors, 3));
  colors[1] = 0;
  EXPECT_FALSE(is_proper_coloring(g, colors, 3));
}

TEST(Algorithms, CliqueCoverChecks) {
  // Two disjoint triangles: coverable by 2 cliques, not 1.
  Graph g(6);
  for (int base : {0, 3}) {
    g.add_edge(base, base + 1);
    g.add_edge(base, base + 2);
    g.add_edge(base + 1, base + 2);
  }
  EXPECT_FALSE(clique_coverable(g, 1));
  EXPECT_TRUE(clique_coverable(g, 2));
  EXPECT_EQ(clique_cover_number(g), 2);

  std::vector<int> assign{0, 0, 0, 1, 1, 1};
  EXPECT_TRUE(is_clique_cover(g, assign, 2));
  assign[0] = 1;
  EXPECT_FALSE(is_clique_cover(g, assign, 2));
}

TEST(Algorithms, GreedyBaselines) {
  const Graph g = cycle_graph(7);
  const auto cover = greedy_vertex_cover(g);
  EXPECT_TRUE(is_vertex_cover(g, cover));
  const auto colors = greedy_coloring(g);
  int max_color = 0;
  for (int c : colors) max_color = std::max(max_color, c);
  EXPECT_TRUE(is_proper_coloring(g, colors, max_color + 1));
}

// Property sweep: exact minimum vertex cover is never larger than greedy and
// always a valid cover size on random graphs.
class VcProperty : public ::testing::TestWithParam<int> {};

TEST_P(VcProperty, ExactNotWorseThanGreedy) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 6 + rng.below(6);
  const std::size_t max_m = n * (n - 1) / 2;
  const std::size_t m = std::min(max_m, n + rng.below(n));
  const Graph g = random_gnm(n, m, rng);
  const auto greedy = greedy_vertex_cover(g);
  const std::size_t greedy_size =
      static_cast<std::size_t>(std::count(greedy.begin(), greedy.end(), true));
  const std::size_t exact = minimum_vertex_cover_size(g);
  EXPECT_LE(exact, greedy_size);
  EXPECT_LE(exact, g.num_vertices());
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, VcProperty, ::testing::Range(0, 20));

}  // namespace
}  // namespace nck
