#include "anneal/topology.hpp"

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace nck {
namespace {

// Default shift offsets (one per track k) for the vertical and horizontal
// segment families. Any choice with the right periodic structure yields the
// canonical 24m(m-1)-qubit, max-degree-15 Pegasus lattice.
constexpr std::array<int, 12> kVerticalOffsets = {2, 2, 10, 10, 6, 6,
                                                  2, 2, 10, 10, 6, 6};
constexpr std::array<int, 12> kHorizontalOffsets = {6, 6, 2, 2, 10, 10,
                                                    6, 6, 2, 2, 10, 10};

// Calls f(a, b) once per Pegasus coupler, in the lattice's fixed order.
template <typename F>
void for_each_pegasus_coupler(int m, F&& f) {
  // External couplers: consecutive segments on the same line.
  // Odd couplers: track pairs (2j, 2j+1) at the same (u, w, z).
  for (int u = 0; u < 2; ++u) {
    for (int w = 0; w < m; ++w) {
      for (int k = 0; k < 12; ++k) {
        for (int z = 0; z < m - 1; ++z) {
          const auto q = pegasus_id(m, {u, w, k, z});
          if (z + 1 < m - 1) f(q, pegasus_id(m, {u, w, k, z + 1}));
          if (k % 2 == 0) f(q, pegasus_id(m, {u, w, k + 1, z}));
        }
      }
    }
  }

  // Internal couplers via segment crossing. The vertical qubit
  // (0, w, k, z) occupies line x = 12w + k over y in
  // [12z + ov[k], 12z + ov[k] + 12); symmetric for horizontal.
  for (int w = 0; w < m; ++w) {
    for (int k = 0; k < 12; ++k) {
      for (int z = 0; z < m - 1; ++z) {
        const int x = 12 * w + k;
        const int y0 = 12 * z + kVerticalOffsets[static_cast<std::size_t>(k)];
        for (int y = y0; y < y0 + 12; ++y) {
          const int w1 = y / 12;
          const int k1 = y % 12;
          if (w1 < 0 || w1 >= m) continue;
          // The horizontal qubit on line y covering x has
          // 12*z1 + oh[k1] <= x < 12*z1 + oh[k1] + 12.
          const int shifted = x - kHorizontalOffsets[static_cast<std::size_t>(k1)];
          const int z1 = shifted >= 0 ? shifted / 12 : -((-shifted + 11) / 12);
          if (z1 < 0 || z1 >= m - 1) continue;
          f(pegasus_id(m, {0, w, k, z}), pegasus_id(m, {1, w1, k1, z1}));
        }
      }
    }
  }
}

}  // namespace

PegasusCoord pegasus_coord(int m, Graph::Vertex q) {
  const int per_u = 12 * m * (m - 1);
  int rest = static_cast<int>(q);
  PegasusCoord c{};
  c.u = rest / per_u;
  rest %= per_u;
  c.w = rest / (12 * (m - 1));
  rest %= 12 * (m - 1);
  c.k = rest / (m - 1);
  c.z = rest % (m - 1);
  return c;
}

Graph::Vertex pegasus_id(int m, const PegasusCoord& c) {
  return static_cast<Graph::Vertex>(
      ((c.u * m + c.w) * 12 + c.k) * (m - 1) + c.z);
}

Graph pegasus_graph(int m, bool fabric_only) {
  if (m < 2) throw std::invalid_argument("pegasus_graph: m must be >= 2");
  const std::size_t n = static_cast<std::size_t>(24 * m * (m - 1));

  // The fabric prunes boundary qubits that ended up with no internal
  // coupler (they sit outside every perpendicular segment's span). These
  // form isolated external/odd chainlets; dwave-networkx drops them the
  // same way. Kept qubits are renumbered in id order.
  constexpr std::int64_t kDropped = -1;
  std::vector<std::int64_t> id(n);
  std::iota(id.begin(), id.end(), std::int64_t{0});
  std::size_t kept = n;
  if (fabric_only) {
    std::vector<bool> has_internal(n, false);
    for_each_pegasus_coupler(m, [&](Graph::Vertex a, Graph::Vertex b) {
      if (pegasus_coord(m, a).u != pegasus_coord(m, b).u) {
        has_internal[a] = true;
        has_internal[b] = true;
      }
    });
    kept = 0;
    for (std::size_t q = 0; q < n; ++q) {
      id[q] = has_internal[q] ? static_cast<std::int64_t>(kept++) : kDropped;
    }
  }

  // Count first and reserve exact degrees, so the couplers go in without
  // regrowing any adjacency list; they go in in the lattice's order, which
  // is the order the unpruned graph and its induced subgraph have.
  std::vector<std::size_t> degrees(kept, 0);
  std::size_t num_edges = 0;
  for_each_pegasus_coupler(m, [&](Graph::Vertex a, Graph::Vertex b) {
    if (id[a] == kDropped || id[b] == kDropped) return;
    ++degrees[static_cast<std::size_t>(id[a])];
    ++degrees[static_cast<std::size_t>(id[b])];
    ++num_edges;
  });
  Graph g(kept);
  g.reserve(degrees, num_edges);
  for_each_pegasus_coupler(m, [&](Graph::Vertex a, Graph::Vertex b) {
    if (id[a] == kDropped || id[b] == kDropped) return;
    g.add_edge(static_cast<Graph::Vertex>(id[a]),
               static_cast<Graph::Vertex>(id[b]));
  });
  return g;
}

Graph chimera_graph(int m, int n, int t) {
  if (m < 1 || n < 1 || t < 1) {
    throw std::invalid_argument("chimera_graph: invalid dimensions");
  }
  const std::size_t total = static_cast<std::size_t>(m) * n * 2 * t;
  Graph g(total);
  auto id = [&](int i, int j, int side, int idx) {
    return static_cast<Graph::Vertex>((((i * n) + j) * 2 + side) * t + idx);
  };
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      // Intra-cell K_{t,t}.
      for (int a = 0; a < t; ++a) {
        for (int b = 0; b < t; ++b) {
          g.add_edge(id(i, j, 0, a), id(i, j, 1, b));
        }
      }
      // Inter-cell: vertical shore couples down, horizontal shore right.
      for (int a = 0; a < t; ++a) {
        if (i + 1 < m) g.add_edge(id(i, j, 0, a), id(i + 1, j, 0, a));
        if (j + 1 < n) g.add_edge(id(i, j, 1, a), id(i, j + 1, 1, a));
      }
    }
  }
  return g;
}

std::size_t Device::num_operable() const {
  std::size_t n = 0;
  for (bool b : operable) {
    if (b) ++n;
  }
  return n;
}

Graph Device::working_graph() const {
  Graph g(graph.num_vertices());
  for (const auto& [u, v] : graph.edges()) {
    if (operable[u] && operable[v]) g.add_edge(u, v);
  }
  return g;
}

Device advantage_4_1(Rng& rng, std::size_t dead_qubits) {
  Device d;
  d.name = "advantage-4.1-sim";
  d.graph = pegasus_graph(16);  // P16 fabric: 5640 qubits
  d.operable.assign(d.graph.num_vertices(), true);
  std::size_t to_disable = dead_qubits;
  while (to_disable > 0) {
    const auto q = static_cast<std::size_t>(rng.below(d.graph.num_vertices()));
    if (d.operable[q]) {
      d.operable[q] = false;
      --to_disable;
    }
  }
  return d;
}

Device perfect_device(std::string name, Graph graph) {
  Device d;
  d.name = std::move(name);
  d.operable.assign(graph.num_vertices(), true);
  d.graph = std::move(graph);
  return d;
}

}  // namespace nck
