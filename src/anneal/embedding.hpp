// Minor embedding of a logical interaction graph into a hardware topology,
// following the Cai-Macready-Roy heuristic that minorminer implements:
// iteratively route every logical variable to a connected chain of physical
// qubits via weighted shortest paths, squeezing out qubit overuse by growing
// the penalty on shared qubits until chains are disjoint.
//
// Chain-length blow-up on Pegasus is what makes the paper's D-Wave qubit
// counts exceed the NchooseK variable counts (Section VIII-A).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace nck {

struct Embedding {
  /// chains[v] = physical qubits representing logical variable v
  /// (connected in the physical graph, pairwise disjoint across chains).
  std::vector<std::vector<Graph::Vertex>> chains;

  /// Edge relaxations made by the router's shortest-path searches over all
  /// attempts (a work count for benches; not part of the embedding).
  std::uint64_t relaxations = 0;

  std::size_t total_qubits() const;
  std::size_t max_chain_length() const;
};

struct EmbedOptions {
  std::size_t max_passes = 64;   // improvement sweeps before giving up
  /// Per-pass growth of the overuse penalty. Must be finite and >= 0: a
  /// negative base gives negative qubit weights, under which shortest
  /// paths are undefined.
  double penalty_base = 4.0;
  std::size_t tries = 5;         // independent restarts (region grows each try)
};

/// Attempts to embed `logical` into `physical`. Qubits that are isolated in
/// `physical` (e.g. masked-out defective qubits) are never used.
/// Returns std::nullopt if no valid embedding was found within the budget,
/// or if options.penalty_base is NaN, infinite or negative.
std::optional<Embedding> find_embedding(const Graph& logical,
                                        const Graph& physical, Rng& rng,
                                        const EmbedOptions& options = {});

/// One shortest-path field from a source chain: dist[q] is the cheapest
/// cost of reaching qubit q, where entering a qubit costs its weight and
/// source qubits cost nothing. parent[q] steps back towards the chain
/// (a source qubit is its own parent); an unreached qubit keeps dist +inf
/// and parent 0.
struct DistField {
  std::vector<double> dist;
  std::vector<Graph::Vertex> parent;
};

/// The router's shortest-path search over one graph (DESIGN.md §3k).
/// Entering qubit q costs class_weight[usage[q]], so qubits fall into a
/// few weight classes, and the search keeps one FIFO per class instead of
/// a binary heap. Its dist and parent arrays equal, bit for bit, those of
/// a lazy-deletion heap Dijkstra that pops (dist, id) pairs in order and
/// relaxes with `nd < dist[w]`. The CSR adjacency and all queues are built
/// once and reused by every run.
class ChainSearch {
 public:
  explicit ChainSearch(const Graph& graph);

  /// Fills `field` from `sources`. Requires usage[q] < class_weight.size()
  /// for every qubit, and every class weight >= 0 or +inf (never NaN).
  /// Returns the number of edge relaxations made.
  std::uint64_t run(std::span<const Graph::Vertex> sources,
                    std::span<const unsigned> usage,
                    std::span<const double> class_weight, DistField& field);

 private:
  std::vector<std::uint32_t> offsets_;  // CSR: neighbors of q are
  std::vector<Graph::Vertex> targets_;  // targets_[offsets_[q], offsets_[q+1])
  std::vector<std::vector<Graph::Vertex>> fifo_;  // one per usage class
  std::vector<std::size_t> fifo_head_;
  std::vector<Graph::Vertex> level_;    // the current level, by id
  std::vector<Graph::Vertex> joiners_;  // min-heap of ids joining the level
};

struct EmbeddingCheck {
  bool ok = false;
  std::string error;
};

/// Checks the three minor-embedding invariants: every chain non-empty and
/// connected in `physical`, chains pairwise disjoint, and every logical edge
/// realized by at least one physical coupler between the two chains.
EmbeddingCheck validate_embedding(const Graph& logical, const Graph& physical,
                                  const Embedding& embedding);

}  // namespace nck
