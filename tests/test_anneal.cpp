#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <queue>
#include <vector>

#include "anneal/backend.hpp"
#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/sampler.hpp"
#include "anneal/topology.hpp"
#include "decompose/decompose.hpp"
#include "graph/generators.hpp"
#include "problems/coloring.hpp"
#include "problems/cover.hpp"
#include "problems/ksat.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "qubo/brute_force.hpp"
#include "runtime/result.hpp"
#include "synth/engine.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

// ---------------------------------------------------------------- Topology

TEST(Pegasus, QubitCountMatchesFormula) {
  for (int m : {2, 3, 4, 16}) {
    // Full lattice: 24m(m-1). Fabric: minus the 8(m-1) couplerless qubits.
    EXPECT_EQ(pegasus_graph(m, /*fabric_only=*/false).num_vertices(),
              static_cast<std::size_t>(24 * m * (m - 1)));
    EXPECT_EQ(pegasus_graph(m).num_vertices(),
              static_cast<std::size_t>(24 * m * (m - 1) - 8 * (m - 1)));
  }
  // P16 fabric == the Advantage 4.1 qubit count the paper reports.
  EXPECT_EQ(pegasus_graph(16).num_vertices(), 5640u);
  EXPECT_THROW(pegasus_graph(1), std::invalid_argument);
}

TEST(Pegasus, DegreeStructure) {
  const Graph g = pegasus_graph(6);
  std::size_t max_degree = 0;
  std::size_t degree15 = 0;
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
    if (g.degree(v) == 15) ++degree15;
  }
  // Pegasus interior qubits have degree 15 (12 internal + 2 external + odd).
  EXPECT_EQ(max_degree, 15u);
  EXPECT_GT(degree15, g.num_vertices() / 3);  // bulk of the lattice
  EXPECT_TRUE(g.connected());
}

// FNV-1a over the vertex count, every adjacency list and the edge list.
std::uint64_t graph_hash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(g.num_vertices());
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    mix(g.degree(v));
    for (Graph::Vertex u : g.neighbors(v)) mix(u);
  }
  mix(g.num_edges());
  for (const auto& [a, b] : g.edges()) {
    mix(a);
    mix(b);
  }
  return h;
}

TEST(Pegasus, GraphsMatchRecordedBuildsBitForBit) {
  // Recorded from the plain add_edge construction (full lattice, then the
  // fabric prune through induced_subgraph) before the builder reserved
  // exact degrees and built the fabric directly: same vertices, same
  // adjacency order, same edge order.
  struct Golden {
    int m;
    bool fabric_only;
    std::size_t edges;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {2, true, 164, 0x2aee8865e401b7a9ull},
      {2, false, 168, 0xd09820f42fa6e2bdull},
      {3, true, 704, 0x772f1668fe9b186full},
      {3, false, 720, 0xca566a772bd1d8efull},
      {6, true, 4484, 0x42c66e794a642b6cull},
      {6, false, 4536, 0x8465c0de217a6930ull},
      {16, true, 40484, 0x601ba89133fba045ull},
      {16, false, 40656, 0xd711311318c1f419ull},
  };
  for (const Golden& golden : goldens) {
    const Graph g = pegasus_graph(golden.m, golden.fabric_only);
    EXPECT_EQ(g.num_edges(), golden.edges) << "m " << golden.m;
    EXPECT_EQ(graph_hash(g), golden.hash)
        << "m " << golden.m << " fabric " << golden.fabric_only;
  }
}

TEST(Pegasus, FabricIsTheInducedSubgraphOfTheFullLattice) {
  for (int m : {2, 4, 7}) {
    const Graph full = pegasus_graph(m, /*fabric_only=*/false);
    std::vector<bool> has_internal(full.num_vertices(), false);
    for (const auto& [a, b] : full.edges()) {
      if (pegasus_coord(m, a).u != pegasus_coord(m, b).u) {
        has_internal[a] = true;
        has_internal[b] = true;
      }
    }
    std::vector<Graph::Vertex> keep;
    for (Graph::Vertex q = 0; q < full.num_vertices(); ++q) {
      if (has_internal[q]) keep.push_back(q);
    }
    EXPECT_TRUE(pegasus_graph(m) == full.induced_subgraph(keep)) << "m " << m;
  }
}

TEST(Pegasus, CoordinateRoundTrip) {
  const int m = 4;
  const Graph g = pegasus_graph(m, /*fabric_only=*/false);
  for (Graph::Vertex q = 0; q < g.num_vertices(); ++q) {
    const PegasusCoord c = pegasus_coord(m, q);
    EXPECT_EQ(pegasus_id(m, c), q);
    EXPECT_GE(c.u, 0);
    EXPECT_LE(c.u, 1);
    EXPECT_LT(c.w, m);
    EXPECT_LT(c.k, 12);
    EXPECT_LT(c.z, m - 1);
  }
}

TEST(Chimera, StructureChecks) {
  const Graph g = chimera_graph(3, 3, 4);
  EXPECT_EQ(g.num_vertices(), 3u * 3u * 8u);
  // Interior cell qubit degree: 4 intra + 2 inter = 6.
  std::size_t max_degree = 0;
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  EXPECT_EQ(max_degree, 6u);
  EXPECT_TRUE(g.connected());
}

TEST(Device, Advantage41MatchesPaperQubitCount) {
  Rng rng(5);
  const Device d = advantage_4_1(rng);
  EXPECT_EQ(d.graph.num_vertices(), 5640u);  // the paper's figure
  EXPECT_EQ(d.num_operable(), 5640u);
  EXPECT_TRUE(d.working_graph().connected());
}

TEST(Device, YieldModelDisablesQubits) {
  Rng rng(6);
  const Device d = advantage_4_1(rng, 13);
  EXPECT_EQ(d.num_operable(), 5640u - 13u);
  const Graph working = d.working_graph();
  std::size_t isolated = 0;
  for (Graph::Vertex v = 0; v < working.num_vertices(); ++v) {
    if (working.degree(v) == 0) ++isolated;
  }
  EXPECT_GE(isolated, 13u);
}

// --------------------------------------------------------------- Embedding

TEST(Embedding, IdentityForNativeSubgraph) {
  // A path embeds into a path with (mostly) unit chains.
  const Graph logical = path_graph(4);
  const Graph physical = path_graph(8);
  Rng rng(1);
  const auto embedding = find_embedding(logical, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const auto check = validate_embedding(logical, physical, *embedding);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Embedding, TriangleNeedsChainsOnCycle) {
  // K3 is not a subgraph of C6, but it is a minor (contract alternate
  // edges), so chains are required. (It is *not* a minor of any path —
  // trees have no cyclic minors — which FailsWhenImpossible covers.)
  const Graph logical = complete_graph(3);
  const Graph physical = cycle_graph(6);
  Rng rng(2);
  const auto embedding = find_embedding(logical, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const auto check = validate_embedding(logical, physical, *embedding);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(embedding->total_qubits(), 3u);
}

TEST(Embedding, FailsWhenImpossible) {
  // K4 is not a minor of a path graph.
  const Graph logical = complete_graph(4);
  const Graph physical = path_graph(10);
  Rng rng(3);
  EmbedOptions options;
  options.max_passes = 12;
  options.tries = 2;
  const auto embedding = find_embedding(logical, physical, rng, options);
  EXPECT_FALSE(embedding.has_value());
}

TEST(Embedding, RejectsPenaltyBaseOutsideItsDomain) {
  // A negative base gives negative qubit weights, under which shortest
  // paths are undefined (on a triangle with one weight of -4 the old heap
  // search popped without end). NaN and infinite bases are refused too.
  const Graph logical = complete_graph(3);
  const Graph physical = cycle_graph(6);
  for (double base : {-4.0, -1e-300, std::nan(""), HUGE_VAL}) {
    Rng rng(2);
    EmbedOptions options;
    options.penalty_base = base;
    EXPECT_FALSE(find_embedding(logical, physical, rng, options).has_value())
        << base;
  }
}

TEST(Embedding, CliqueOnPegasus) {
  const Graph logical = complete_graph(8);
  const Graph physical = pegasus_graph(3);
  Rng rng(4);
  const auto embedding = find_embedding(logical, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const auto check = validate_embedding(logical, physical, *embedding);
  EXPECT_TRUE(check.ok) << check.error;
  // Dense problems need chains: more qubits than logical variables.
  EXPECT_GT(embedding->total_qubits(), logical.num_vertices());
}

TEST(Embedding, ValidatorCatchesBrokenChains) {
  const Graph logical = path_graph(2);
  const Graph physical = path_graph(4);
  Embedding bad;
  bad.chains = {{0, 2}, {1}};  // chain {0,2} is disconnected; also overlaps..
  const auto check = validate_embedding(logical, physical, bad);
  EXPECT_FALSE(check.ok);
}

TEST(Embedding, ValidatorCatchesMissingCoupler) {
  const Graph logical = path_graph(2);
  const Graph physical = path_graph(4);
  Embedding bad;
  bad.chains = {{0}, {3}};  // no physical edge between 0 and 3
  const auto check = validate_embedding(logical, physical, bad);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("no physical coupler"), std::string::npos);
}

class EmbeddingProperty : public ::testing::TestWithParam<int> {};

TEST_P(EmbeddingProperty, RandomGraphsOnPegasus) {
  Rng rng(static_cast<std::uint64_t>(31337 + GetParam()));
  const std::size_t n = 4 + rng.below(10);
  const std::size_t m =
      std::min(n * (n - 1) / 2, n + rng.below(2 * n));
  const Graph logical = random_gnm(n, m, rng);
  const Graph physical = pegasus_graph(4);
  const auto embedding = find_embedding(logical, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const auto check = validate_embedding(logical, physical, *embedding);
  EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, EmbeddingProperty,
                         ::testing::Range(0, 15));

// The binary-heap Dijkstra the router ran before ChainSearch replaced it,
// kept as the reference whose fields ChainSearch must equal bit for bit.
DistField heap_dijkstra(const Graph& physical,
                        const std::vector<Graph::Vertex>& sources,
                        const std::vector<double>& weight) {
  const std::size_t n = physical.num_vertices();
  DistField field;
  field.dist.assign(n, std::numeric_limits<double>::infinity());
  field.parent.assign(n, 0);
  using Item = std::pair<double, Graph::Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (Graph::Vertex s : sources) {
    field.dist[s] = 0.0;
    field.parent[s] = s;
    pq.emplace(0.0, s);
  }
  while (!pq.empty()) {
    const auto [d, q] = pq.top();
    pq.pop();
    if (d > field.dist[q]) continue;
    for (Graph::Vertex w : physical.neighbors(q)) {
      const double nd = d + weight[w];
      if (nd < field.dist[w]) {
        field.dist[w] = nd;
        field.parent[w] = q;
        pq.emplace(nd, w);
      }
    }
  }
  return field;
}

TEST(ChainSearchBitIdentity, FieldsMatchHeapDijkstra) {
  // Random regions (Pegasus patches with holes, so some qubits are
  // isolated, and sparse random graphs), random usages and penalties:
  // zero weights (base 0), weights below one (base 0.5), weights of 1e18
  // that carry distances past 2^53 where unit steps are absorbed, and
  // pow overflow to +inf. One ChainSearch serves every run on a region,
  // so its reused buffers are exercised too.
  constexpr double kTwo53 = 9007199254740992.0;
  const double penalties[] = {0.0, 0.5, 1.0, 4.0, 16.0, 1e9};
  const Graph pegasus = pegasus_graph(4);
  Rng rng(2025);
  std::size_t past_2_53 = 0, absorbed = 0, inf_weight = 0, unreached = 0,
              multi_source = 0;
  for (int region = 0; region < 60; ++region) {
    Graph g;
    if (region % 2 == 0) {
      std::vector<Graph::Vertex> keep;
      for (Graph::Vertex q = 0; q < pegasus.num_vertices(); ++q) {
        if (rng.bernoulli(0.85)) keep.push_back(q);
      }
      g = pegasus.induced_subgraph(keep);
    } else {
      const std::size_t n = 2 + rng.below(120);
      g = random_gnm(n, rng.below(std::min(3 * n, n * (n - 1) / 2) + 1), rng);
    }
    const std::size_t n = g.num_vertices();
    ChainSearch search(g);
    DistField field;
    for (int run = 0; run < 12; ++run) {
      const double penalty = penalties[rng.below(std::size(penalties))];
      const auto top = static_cast<unsigned>(
          rng.bernoulli(0.2) ? 40 : 1 + rng.below(4));
      std::vector<unsigned> usage(n, 0);
      for (unsigned& u : usage) {
        if (rng.bernoulli(0.4)) u = static_cast<unsigned>(rng.below(top + 1));
      }
      std::vector<double> class_weight(top + 1);
      for (unsigned u = 0; u <= top; ++u) {
        class_weight[u] = std::pow(penalty, static_cast<double>(u));
      }
      std::vector<double> weight(n);
      for (std::size_t q = 0; q < n; ++q) {
        weight[q] = std::pow(penalty, static_cast<double>(usage[q]));
        if (std::isinf(weight[q])) ++inf_weight;
      }
      std::vector<Graph::Vertex> sources;
      const std::size_t want = 1 + rng.below(4);
      while (sources.size() < want && sources.size() < n) {
        const auto q = static_cast<Graph::Vertex>(rng.below(n));
        if (std::find(sources.begin(), sources.end(), q) == sources.end()) {
          sources.push_back(q);
        }
      }
      if (sources.size() > 1) ++multi_source;

      const DistField want_field = heap_dijkstra(g, sources, weight);
      search.run(sources, usage, class_weight, field);
      ASSERT_EQ(field.parent, want_field.parent)
          << "region " << region << " run " << run;
      for (std::size_t q = 0; q < n; ++q) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(field.dist[q]),
                  std::bit_cast<std::uint64_t>(want_field.dist[q]))
            << "region " << region << " run " << run << " qubit " << q;
        const double d = field.dist[q];
        if (std::isinf(d)) ++unreached;
        if (std::isfinite(d) && d >= kTwo53) {
          ++past_2_53;
          const Graph::Vertex p = field.parent[q];
          if (field.dist[p] == d && weight[q] > 0.0) ++absorbed;
        }
      }
    }
  }
  // The draws reach every case the search treats specially.
  EXPECT_GT(past_2_53, 0u);
  EXPECT_GT(absorbed, 0u);
  EXPECT_GT(inf_weight, 0u);
  EXPECT_GT(unreached, 0u);
  EXPECT_GT(multi_source, 0u);
}

// FNV-1a over the embedded flag and every chain's length and qubits, in
// variable order.
std::uint64_t chains_hash(const AnnealPrepared& prepared) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(prepared.embedded ? 1u : 0u);
  mix(prepared.embedding.chains.size());
  for (const auto& chain : prepared.embedding.chains) {
    mix(chain.size());
    for (Graph::Vertex q : chain) mix(q);
  }
  return h;
}

TEST(EmbeddingBitIdentity, ChainsMatchRecordedGoldenHash) {
  // Recorded from the binary-heap Dijkstra router before the level-ordered
  // search replaced it: any change to a distance, a parent, a tie-break or
  // an Rng draw of find_embedding moves a hash. The programs are the
  // annealer batch families (compiled and presolved exactly as a solve
  // prepares them), one decompose subproblem of set_cover_large, and two
  // of the families again on a device with dead qubits, each embedded at
  // three seeds. Max-cut and vertex cover on one graph share an
  // interaction graph, so their rows agree.
  std::vector<Env> envs;
  for (std::size_t n : {std::size_t{9}, std::size_t{15}}) {
    envs.push_back(MaxCutProblem{vertex_scaling_graph(n)}.encode());
    envs.push_back(VertexCoverProblem{vertex_scaling_graph(n)}.encode());
  }
  envs.push_back(MapColoringProblem{vertex_scaling_graph(9), 3}.encode());
  envs.push_back(CliqueCoverProblem{vertex_scaling_graph(9), 3}.encode());
  for (std::size_t elements : {std::size_t{6}, std::size_t{12}}) {
    Rng set_rng(424242 + elements);
    const SetSystem system =
        random_set_system(elements, elements / 3, elements / 2, set_rng);
    envs.push_back(ExactCoverProblem{system}.encode());
    envs.push_back(MinSetCoverProblem{system}.encode());
  }
  for (std::size_t vars : {std::size_t{4}, std::size_t{8}}) {
    Rng sat_rng(171717 + vars);
    envs.push_back(
        KSatProblem{random_ksat(vars, 3 * vars, 3, sat_rng)}.encode_repeated());
  }
  // A decompose round's subproblem: part 4 of set_cover_large's partition
  // at the 65-variable cap (16 program variables, 48 QUBO variables),
  // clamped to the all-false incumbent.
  SynthEngine engine;
  const Env large =
      MinSetCoverProblem{chained_set_system(41, 8, 2, 4)}.encode();
  const decompose::Partition partition =
      decompose::plan_partition(large, 65, &engine);
  ASSERT_GT(partition.parts.size(), 4u);
  envs.push_back(decompose::clamp_to_incumbent(
                     large, partition.parts[4],
                     std::vector<bool>(large.num_vars(), false))
                     .env);
  EXPECT_EQ(envs.back().num_vars(), 16u);

  Rng device_rng(0xD3071CEull);
  const Device device = advantage_4_1(device_rng);
  Rng masked_rng(77);
  const Device masked = advantage_4_1(masked_rng, 200);
  std::vector<std::pair<const Env*, const Device*>> cases;
  for (const Env& env : envs) cases.emplace_back(&env, &device);
  cases.emplace_back(&envs[0], &masked);  // max-cut 9
  cases.emplace_back(&envs[9], &masked);  // min-set-cover 12

  std::vector<std::uint64_t> hashes;
  for (const auto& [env, dev] : cases) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      const AnnealPrepared prepared = prepare_annealer(*env, *dev, engine, rng);
      ASSERT_TRUE(prepared.embedded);
      hashes.push_back(chains_hash(prepared));
    }
  }
  const std::vector<std::uint64_t> golden = {
      0x62e9ecd25906ff06ull, 0xcbdcabf363a21861ull, 0x166e06f6f37a8a79ull,
      0x62e9ecd25906ff06ull, 0xcbdcabf363a21861ull, 0x166e06f6f37a8a79ull,
      0x5aceaccbd8d9ea58ull, 0xa298dc731a5bca8bull, 0x474cc2afbdd32a43ull,
      0x5aceaccbd8d9ea58ull, 0xa298dc731a5bca8bull, 0x474cc2afbdd32a43ull,
      0xa29a9d3f2c9639e5ull, 0x78eebd25b87e36cfull, 0xd079a38618f4e87eull,
      0x71886caa7bf9a58full, 0x9530ae499f3bea03ull, 0xdd2d3689c146577dull,
      0x4e3ef2b8ffb27971ull, 0xbeb19d4e4586c61eull, 0xec34916576e465f3ull,
      0xe1931cba4a711c9full, 0x03a743a0517cae02ull, 0xa3ada13e147ba0acull,
      0xa0c0baae57ce2d98ull, 0x5544e3d38541c236ull, 0x00d4aa1d55d7339aull,
      0x4b459c9fff2ae9b9ull, 0x7b73c63b33361a3bull, 0x300b8ad460495269ull,
      0x9379b83c044e9935ull, 0xe9d179b6aa12efc9ull, 0x7db2e5be079d0b25ull,
      0xbc6b85322a6efdb4ull, 0x99450556ee7d3f02ull, 0x4714d2e88cc9acf3ull,
      0x0ad99b1e43d737a0ull, 0x07128f3fc11459d9ull, 0xf8ade229160f5875ull,
      0xdfab124362162467ull, 0x99dca77df7953475ull, 0x4bfe60df57ab7e09ull,
      0xf3f6f2a8d0b8a29dull, 0xea85b12c2c639485ull, 0xcb9dd91d7fb937eaull};
  EXPECT_EQ(hashes, golden);
}

// ---------------------------------------------------------- Embedded Ising

TEST(EmbeddedIsing, IntactChainsPreserveLogicalEnergy) {
  // Logical triangle problem embedded on a path-of-6 (one chain of 2).
  IsingModel logical;
  logical.h = {0.5, -0.25, 0.75};
  logical.j = {{0, 1, 1.0}, {0, 2, -0.5}, {1, 2, 0.25}};
  const Graph logical_graph = complete_graph(3);
  const Graph physical = pegasus_graph(2);
  Rng rng(6);
  const auto embedding = find_embedding(logical_graph, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  // For every logical spin assignment, setting all chain qubits coherently
  // must reproduce the logical energy exactly (offset calibrated).
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    std::vector<bool> logical_spins(3);
    for (std::size_t i = 0; i < 3; ++i) logical_spins[i] = (bits >> i) & 1u;
    std::vector<bool> physical_spins(problem.num_physical_qubits());
    for (std::size_t v = 0; v < 3; ++v) {
      for (std::uint32_t c : problem.chain[v]) {
        physical_spins[c] = logical_spins[v];
      }
    }
    EXPECT_NEAR(problem.ising.energy(physical_spins),
                logical.energy(logical_spins), 1e-9)
        << "bits=" << bits;
  }
}

TEST(EmbeddedIsing, UnembedMajorityVote) {
  EmbeddedProblem problem;
  problem.chain = {{0, 1, 2}, {3}};
  problem.qubit = {10, 11, 12, 13};
  UnembedStats stats;
  // Chain 0: two of three up -> logical up, one break, no tie.
  const auto logical =
      unembed_sample({true, true, false, false}, problem, &stats);
  EXPECT_EQ(logical, (std::vector<bool>{true, false}));
  EXPECT_EQ(stats.chain_breaks, 1u);
  EXPECT_EQ(stats.ties, 0u);
}

TEST(EmbeddedIsing, TieBreakUsesRngNotAlwaysTrue) {
  // Regression: an exactly split chain always resolved to TRUE, biasing
  // every tied majority vote. With an Rng the coin must land both ways,
  // and the tie must be counted.
  EmbeddedProblem problem;
  problem.chain = {{0, 1}};
  problem.qubit = {10, 11};
  const std::vector<bool> split{true, false};

  Rng rng(21);
  std::size_t trues = 0;
  constexpr std::size_t kDraws = 200;
  for (std::size_t i = 0; i < kDraws; ++i) {
    UnembedStats stats;
    const auto logical = unembed_sample(split, problem, &stats, &rng);
    EXPECT_EQ(stats.chain_breaks, 1u);
    EXPECT_EQ(stats.ties, 1u);
    if (logical[0]) ++trues;
  }
  // A fair coin over 200 draws: both outcomes occur (each side fails with
  // probability 2^-200).
  EXPECT_GT(trues, 0u);
  EXPECT_LT(trues, kDraws);

  // Null rng keeps the deterministic ties-to-TRUE fallback for tests.
  UnembedStats stats;
  EXPECT_EQ(unembed_sample(split, problem, &stats, nullptr),
            (std::vector<bool>{true}));
  EXPECT_EQ(stats.ties, 1u);
}

TEST(EmbeddedIsing, OddChainsCannotTie) {
  EmbeddedProblem problem;
  problem.chain = {{0, 1, 2}};
  problem.qubit = {10, 11, 12};
  Rng rng(22);
  UnembedStats stats;
  const auto logical =
      unembed_sample({false, true, false}, problem, &stats, &rng);
  EXPECT_EQ(logical, (std::vector<bool>{false}));
  EXPECT_EQ(stats.chain_breaks, 1u);
  EXPECT_EQ(stats.ties, 0u);
}

TEST(EmbeddedIsing, ChainStrengthScalesWithCouplings) {
  IsingModel weak;
  weak.h = {0.0, 0.0};
  weak.j = {{0, 1, 0.1}};
  IsingModel strong;
  strong.h = {0.0, 0.0};
  strong.j = {{0, 1, 10.0}};
  EXPECT_LT(recommended_chain_strength(weak),
            recommended_chain_strength(strong));
}

// ----------------------------------------------------------------- Sampler

TEST(Sampler, FindsGroundStateOfSmallProblem) {
  // Ferromagnetic triangle with a bias: ground state all-up.
  IsingModel logical;
  logical.h = {-0.5, -0.5, -0.5};
  logical.j = {{0, 1, -1.0}, {0, 2, -1.0}, {1, 2, -1.0}};
  const Graph logical_graph = complete_graph(3);
  const Graph physical = pegasus_graph(2);
  Rng rng(7);
  const auto embedding = find_embedding(logical_graph, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  AnnealerSamplerOptions options;
  options.num_reads = 20;
  const auto result = sample_annealer(logical, problem, options, rng);
  ASSERT_EQ(result.reads.size(), 20u);
  EXPECT_EQ(result.reads.front().logical, (std::vector<bool>{true, true, true}));
  // Sorted by energy.
  for (std::size_t i = 1; i < result.reads.size(); ++i) {
    EXPECT_LE(result.reads[i - 1].logical_energy,
              result.reads[i].logical_energy);
  }
}

TEST(Sampler, TimingModelMatchesPaperBallpark) {
  // Section VIII-C: ~15 ms programming + 100 samples costing slightly less
  // than programming, ~30 ms total.
  const DWaveTimingModel model;
  const double total_ms = model.qpu_access_time_us(100) / 1000.0;
  EXPECT_GT(total_ms, 20.0);
  EXPECT_LT(total_ms, 40.0);
  EXPECT_LT(model.sampling_time_us(100), model.programming_us);
}

TEST(Sampler, PostprocessTimeOnlyChargedWhenEnabled) {
  // Regression: the timing model charged the post-processing tail even
  // when options.postprocess was off, over-reporting QPU access time.
  IsingModel logical;
  logical.h = {-0.5, -0.5};
  logical.j = {{0, 1, -1.0}};
  const Graph logical_graph = path_graph(2);
  const Graph physical = pegasus_graph(2);
  Rng rng(23);
  const auto embedding = find_embedding(logical_graph, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  AnnealerSamplerOptions options;
  options.num_reads = 5;
  options.postprocess = false;
  obs::Trace trace_off;
  Rng rng_off(24);
  const auto off = sample_annealer(logical, problem, options, rng_off,
                                   &trace_off);
  EXPECT_DOUBLE_EQ(off.timing.postprocess_us, 0.0);
  EXPECT_DOUBLE_EQ(off.timing.total_us,
                   off.timing.programming_us + off.timing.sampling_us);
  // Asserted through the trace too: the modeled device span shows 0.
  const obs::TraceData data_off = trace_off.snapshot();
  const auto* span_off = data_off.find_span("device.postprocess");
  ASSERT_NE(span_off, nullptr);
  EXPECT_DOUBLE_EQ(span_off->duration_us, 0.0);

  options.postprocess = true;
  obs::Trace trace_on;
  Rng rng_on(24);
  const auto on = sample_annealer(logical, problem, options, rng_on,
                                  &trace_on);
  EXPECT_DOUBLE_EQ(on.timing.postprocess_us,
                   options.timing_model.postprocess_us);
  EXPECT_DOUBLE_EQ(on.timing.total_us, on.timing.programming_us +
                                           on.timing.sampling_us +
                                           on.timing.postprocess_us);
  const obs::TraceData data_on = trace_on.snapshot();
  const auto* span_on = data_on.find_span("device.postprocess");
  ASSERT_NE(span_on, nullptr);
  EXPECT_DOUBLE_EQ(span_on->duration_us, options.timing_model.postprocess_us);
}

TEST(Sampler, ExtremeNoiseDegradesResults) {
  IsingModel logical;
  logical.h = {-1.0, -1.0, -1.0, -1.0};
  logical.j = {{0, 1, -1.0}, {1, 2, -1.0}, {2, 3, -1.0}};
  const Graph logical_graph = path_graph(4);
  const Graph physical = pegasus_graph(2);
  Rng rng(8);
  const auto embedding = find_embedding(logical_graph, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  AnnealerSamplerOptions clean;
  clean.num_reads = 30;
  clean.ice_sigma = 0.0;
  clean.readout_error = 0.0;
  AnnealerSamplerOptions noisy = clean;
  noisy.readout_error = 0.45;  // near-random readout

  Rng rng_clean(100), rng_noisy(100);
  const auto r_clean = sample_annealer(logical, problem, clean, rng_clean);
  const auto r_noisy = sample_annealer(logical, problem, noisy, rng_noisy);
  EXPECT_LT(r_clean.reads.front().logical_energy,
            r_noisy.reads[r_noisy.reads.size() / 2].logical_energy);
}

// ----------------------------------------------------------------- Backend

TEST(AnnealBackend, SolvesVertexCoverEndToEnd) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const VertexCoverProblem problem{g};
  const Env env = problem.encode();

  const Device device = perfect_device("pegasus-4", pegasus_graph(4));
  SynthEngine engine;
  Rng rng(9);
  AnnealBackendOptions options;
  options.sampler.num_reads = 50;
  const AnnealOutcome outcome = run_annealer(env, device, engine, rng, options);
  ASSERT_TRUE(outcome.embedded);
  EXPECT_GE(outcome.qubits_used, 5u);
  ASSERT_EQ(outcome.samples.size(), 50u);

  // Annealer success criterion: any read optimal.
  const GroundTruth truth = ground_truth(env);
  const QualityCounts counts = classify_all(outcome.evaluations, truth);
  EXPECT_TRUE(counts.any_optimal());
}

TEST(AnnealBackend, ReportsEmbeddingFailure) {
  // A dense problem cannot embed on a tiny path device.
  const VertexCoverProblem problem{complete_graph(6)};
  const Device device = perfect_device("path", path_graph(8));
  SynthEngine engine;
  Rng rng(10);
  AnnealBackendOptions options;
  options.embed.max_passes = 8;
  options.embed.tries = 1;
  const AnnealOutcome outcome =
      run_annealer(problem.encode(), device, engine, rng, options);
  EXPECT_FALSE(outcome.embedded);
  EXPECT_TRUE(outcome.samples.empty());
}

}  // namespace
}  // namespace nck
