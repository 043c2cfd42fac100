#include "anneal/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "util/logging.hpp"

namespace nck {

std::size_t Embedding::total_qubits() const {
  std::size_t n = 0;
  for (const auto& chain : chains) n += chain.size();
  return n;
}

std::size_t Embedding::max_chain_length() const {
  std::size_t n = 0;
  for (const auto& chain : chains) n = std::max(n, chain.size());
  return n;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ChainSearch::ChainSearch(const Graph& graph) {
  const std::size_t n = graph.num_vertices();
  offsets_.reserve(n + 1);
  targets_.reserve(2 * graph.num_edges());
  offsets_.push_back(0);
  for (std::size_t q = 0; q < n; ++q) {
    for (Graph::Vertex w : graph.neighbors(static_cast<Graph::Vertex>(q))) {
      targets_.push_back(w);
    }
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
  }
}

// Entering a qubit costs its class weight c >= 0, so a qubit reached from
// a popped qubit at distance d gets fl(d + c) >= d, and pops come in
// nondecreasing distance. Round-to-nearest addition is monotone, so the
// first reach already fixes dist[w] and parent[w]: every qubit is pushed
// once, and the keys pushed into one class arrive nondecreasing, which is
// what lets a FIFO per class stand in for the heap. The heap pops equal
// keys by id; a level collects every queued qubit at the current minimum
// key D and pops it in id order, and a qubit that joins the level while it
// is popped (fl(D + c) == D: a zero weight, or D so large that the step is
// absorbed) goes through a small id heap merged into that order. So the
// pops, and with them every parent tie-break, are the heap's.
std::uint64_t ChainSearch::run(std::span<const Graph::Vertex> sources,
                               std::span<const unsigned> usage,
                               std::span<const double> class_weight,
                               DistField& field) {
  const std::size_t n = offsets_.size() - 1;
  field.dist.assign(n, kInf);
  field.parent.assign(n, 0);
  double* const dist = field.dist.data();
  Graph::Vertex* const parent = field.parent.data();
  const std::uint32_t* const offsets = offsets_.data();
  const Graph::Vertex* const targets = targets_.data();
  const unsigned* const use = usage.data();
  const double* const weight = class_weight.data();

  const std::size_t classes = class_weight.size();
  if (fifo_.size() < classes) {
    fifo_.resize(classes);
    fifo_head_.resize(classes);
  }
  for (std::size_t c = 0; c < classes; ++c) {
    fifo_[c].clear();
    fifo_head_[c] = 0;
  }

  level_.assign(sources.begin(), sources.end());
  for (Graph::Vertex s : sources) {
    dist[s] = 0.0;  // already part of the chain: free
    parent[s] = s;
  }
  double level_key = 0.0;
  std::uint64_t relaxations = 0;
  while (!level_.empty()) {
    std::sort(level_.begin(), level_.end());
    joiners_.clear();
    std::size_t next = 0;
    while (next < level_.size() || !joiners_.empty()) {
      Graph::Vertex q;
      if (!joiners_.empty() &&
          (next == level_.size() || joiners_.front() < level_[next])) {
        std::pop_heap(joiners_.begin(), joiners_.end(), std::greater<>());
        q = joiners_.back();
        joiners_.pop_back();
      } else {
        q = level_[next++];
      }
      relaxations += offsets[q + 1] - offsets[q];
      for (std::uint32_t e = offsets[q]; e < offsets[q + 1]; ++e) {
        const Graph::Vertex w = targets[e];
        if (dist[w] != kInf) continue;  // reached: fl(d + c) >= dist[w]
        const double nd = level_key + weight[use[w]];
        if (nd == kInf) continue;  // unreached, as inf < inf is false
        dist[w] = nd;
        parent[w] = q;
        if (nd == level_key) {
          joiners_.push_back(w);
          std::push_heap(joiners_.begin(), joiners_.end(), std::greater<>());
        } else {
          fifo_[use[w]].push_back(w);
        }
      }
    }

    // The next level: every FIFO head at the least queued key.
    level_.clear();
    level_key = kInf;
    for (std::size_t c = 0; c < classes; ++c) {
      if (fifo_head_[c] < fifo_[c].size()) {
        level_key = std::min(level_key, dist[fifo_[c][fifo_head_[c]]]);
      }
    }
    for (std::size_t c = 0; c < classes; ++c) {
      const std::vector<Graph::Vertex>& fifo = fifo_[c];
      std::size_t& head = fifo_head_[c];
      while (head < fifo.size() && dist[fifo[head]] == level_key) {
        level_.push_back(fifo[head++]);
      }
    }
  }
  return relaxations;
}

namespace {

// BFS order over the logical graph from a max-degree root: neighbors get
// routed near each other on the first pass instead of landing at random.
std::vector<Graph::Vertex> logical_bfs_order(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<bool> seen(n, false);
  std::vector<Graph::Vertex> order;
  order.reserve(n);
  for (std::size_t round = 0; round < n; ++round) {
    // Pick the unseen vertex of highest degree as the next component root.
    std::size_t best = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!seen[v] && (best == n || g.degree(static_cast<Graph::Vertex>(v)) >
                                        g.degree(static_cast<Graph::Vertex>(best)))) {
        best = v;
      }
    }
    if (best == n) break;
    std::vector<Graph::Vertex> queue{static_cast<Graph::Vertex>(best)};
    seen[best] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Graph::Vertex v = queue[head];
      order.push_back(v);
      for (Graph::Vertex w : g.neighbors(v)) {
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
  }
  return order;
}

class Embedder {
 public:
  Embedder(const Graph& logical, const Graph& physical, Rng& rng,
           const EmbedOptions& options)
      : logical_(logical),
        physical_(physical),
        rng_(rng),
        options_(options),
        search_(physical),
        in_chain_(physical.num_vertices(), 0) {}

  std::uint64_t relaxations() const { return relaxations_; }

  std::optional<Embedding> run() {
    const std::size_t n = logical_.num_vertices();
    chains_.assign(n, {});
    usage_.assign(physical_.num_vertices(), 0);

    double penalty = options_.penalty_base;
    std::vector<Graph::Vertex> order = logical_bfs_order(logical_);

    std::size_t best_overuse = std::numeric_limits<std::size_t>::max();
    std::size_t stalled_passes = 0;

    for (std::size_t pass = 0; pass < options_.max_passes; ++pass) {
      // Pass 0 (and periodic diversification passes) reroute everything;
      // otherwise only the chains competing for overused qubits move, so
      // settled chains stay settled (minorminer's improvement stage).
      const bool full_pass = pass % 8 == 0;
      for (Graph::Vertex v : order) {
        if (full_pass || chains_[v].empty() || chain_contested(v)) {
          route_variable(v, penalty);
        }
      }
      if (log_level() <= LogLevel::kDebug) {
        std::size_t total = 0, longest = 0;
        for (const auto& c : chains_) {
          total += c.size();
          longest = std::max(longest, c.size());
        }
        Log(LogLevel::kDebug)
            << "embed pass " << pass << ": overuse " << overuse()
            << ", chain qubits " << total << " (max " << longest << ") of "
            << physical_.num_vertices() << ", embedded "
            << (all_embedded() ? "all" : "partial");
      }
      if (overuse() == 0 && all_embedded()) {
        trim_chains();
        Embedding result;
        result.chains = chains_;
        return result;
      }
      if (pass + 1 == options_.max_passes) {
        std::ostringstream detail;
        for (std::size_t q = 0; q < usage_.size(); ++q) {
          if (usage_[q] > 1) {
            detail << " q" << q << "{";
            for (std::size_t v = 0; v < chains_.size(); ++v) {
              for (Graph::Vertex cq : chains_[v]) {
                if (cq == q) {
                  detail << " v" << v << "(deg "
                         << logical_.degree(static_cast<Graph::Vertex>(v))
                         << ", chain " << chains_[v].size() << ")";
                }
              }
            }
            detail << " }";
          }
        }
        Log(LogLevel::kInfo) << "embed attempt failed: overuse " << overuse()
                             << ", " << (all_embedded() ? "all" : "partial")
                             << " embedded, " << physical_.num_vertices()
                             << " physical qubits;" << detail.str();
      }
      // Stall detection: once chains tangle into a knot that encloses some
      // neighbor chains, sequential rerouting cannot untangle it (every
      // candidate root pays a forced crossing). Rip everything up and start
      // the attempt over with a fresh random order.
      const std::size_t current = overuse();
      if (current < best_overuse) {
        best_overuse = current;
        stalled_passes = 0;
      } else if (++stalled_passes >= 6) {
        for (std::size_t v = 0; v < chains_.size(); ++v) {
          drop_chain(static_cast<Graph::Vertex>(v));
        }
        penalty = options_.penalty_base;
        best_overuse = std::numeric_limits<std::size_t>::max();
        stalled_passes = 0;
        rng_.shuffle(order);
        continue;
      }

      rng_.shuffle(order);  // explore different routings on later passes
      penalty *= options_.penalty_base;
      // The penalty must keep growing: a capped penalty lets high-degree
      // variables *buy* overlap (sitting on a neighbor chain saves many
      // distance terms at a one-off cost), which never converges. Chain
      // ballooning under large penalties is prevented by the Steiner-style
      // segment reuse in route_variable.
      penalty = std::min(penalty, 1e9);
    }
    return std::nullopt;
  }

 private:
  bool all_embedded() const {
    return std::none_of(chains_.begin(), chains_.end(),
                        [](const auto& c) { return c.empty(); });
  }

  std::size_t overuse() const {
    std::size_t over = 0;
    for (unsigned u : usage_) {
      if (u > 1) over += u - 1;
    }
    return over;
  }

  bool chain_contested(Graph::Vertex v) const {
    for (Graph::Vertex q : chains_[v]) {
      if (usage_[q] > 1) return true;
    }
    return false;
  }

  // Removes redundant chain qubits: a qubit can go if it is a leaf of the
  // chain's induced subgraph (so the chain stays connected) and every
  // logical edge it helps realize is still realized by another chain qubit.
  // Union-of-shortest-paths chains routinely carry such slack.
  void trim_chains() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t v = 0; v < chains_.size(); ++v) {
        auto& chain = chains_[v];
        if (chain.size() <= 1) continue;
        for (std::size_t idx = 0; idx < chain.size(); ++idx) {
          const Graph::Vertex q = chain[idx];
          // Leaf check: at most one chain-internal neighbor.
          std::size_t internal = 0;
          for (Graph::Vertex w : physical_.neighbors(q)) {
            for (Graph::Vertex cq : chain) {
              if (cq == w) {
                ++internal;
                break;
              }
            }
          }
          if (internal > 1) continue;
          // Coupler check: every logical neighbor must stay reachable.
          bool needed = false;
          for (Graph::Vertex u : logical_.neighbors(static_cast<Graph::Vertex>(v))) {
            bool via_q = false, via_other = false;
            for (Graph::Vertex uq : chains_[u]) {
              if (physical_.has_edge(q, uq)) via_q = true;
            }
            if (!via_q) continue;
            for (Graph::Vertex cq : chain) {
              if (cq == q) continue;
              for (Graph::Vertex uq : chains_[u]) {
                if (physical_.has_edge(cq, uq)) {
                  via_other = true;
                  break;
                }
              }
              if (via_other) break;
            }
            if (!via_other) {
              needed = true;
              break;
            }
          }
          if (needed) continue;
          --usage_[q];
          chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(idx));
          --idx;
          changed = true;
        }
      }
    }
  }

  void drop_chain(Graph::Vertex v) {
    for (Graph::Vertex q : chains_[v]) --usage_[q];
    chains_[v].clear();
  }

  void adopt_chain(Graph::Vertex v, std::vector<Graph::Vertex> chain) {
    chains_[v] = std::move(chain);
    for (Graph::Vertex q : chains_[v]) ++usage_[q];
  }

  // Weight of stepping onto a qubit: usable qubits cost penalty^usage,
  // computed once per usage value; isolated (defective) qubits are
  // unreachable by construction.
  void set_class_weights(double penalty) {
    unsigned top = 0;
    for (unsigned u : usage_) top = std::max(top, u);
    class_weight_.resize(top + std::size_t{1});
    for (unsigned u = 0; u <= top; ++u) {
      class_weight_[u] = std::pow(penalty, static_cast<double>(u));
    }
  }

  double weight(std::size_t q) const { return class_weight_[usage_[q]]; }

  void route_variable(Graph::Vertex v, double penalty) {
    drop_chain(v);

    // Collect embedded neighbors.
    nbrs_.clear();
    for (Graph::Vertex u : logical_.neighbors(v)) {
      if (!chains_[u].empty()) nbrs_.push_back(u);
    }

    set_class_weights(penalty);

    if (nbrs_.empty()) {
      // Nothing to connect to yet: claim the least-used usable qubit.
      Graph::Vertex best = 0;
      double best_w = kInf;
      for (std::size_t q = 0; q < usage_.size(); ++q) {
        if (physical_.degree(static_cast<Graph::Vertex>(q)) == 0) continue;
        const double jitter = weight(q) * (1.0 + 0.01 * rng_.uniform());
        if (jitter < best_w) {
          best_w = jitter;
          best = static_cast<Graph::Vertex>(q);
        }
      }
      adopt_chain(v, {best});
      return;
    }

    // One shortest-path field per embedded neighbor chain.
    if (fields_.size() < nbrs_.size()) fields_.resize(nbrs_.size());
    for (std::size_t i = 0; i < nbrs_.size(); ++i) {
      relaxations_ +=
          search_.run(chains_[nbrs_[i]], usage_, class_weight_, fields_[i]);
    }
    const std::span<const DistField> fields(fields_.data(), nbrs_.size());

    // Root = usable qubit minimizing (own weight + sum of distances).
    // A small random jitter breaks ties so chains don't pile onto the
    // lowest-index corner of the device.
    Graph::Vertex root = 0;
    double best_cost = kInf;
    for (std::size_t q = 0; q < usage_.size(); ++q) {
      if (physical_.degree(static_cast<Graph::Vertex>(q)) == 0) continue;
      double cost = weight(q);
      for (const auto& f : fields) {
        if (f.dist[q] == kInf) {
          cost = kInf;
          break;
        }
        cost += f.dist[q];
      }
      if (cost < kInf) cost *= 1.0 + 0.05 * rng_.uniform();
      if (cost < best_cost) {
        best_cost = cost;
        root = static_cast<Graph::Vertex>(q);
      }
    }
    if (best_cost == kInf) {
      // Physically unreachable this pass; leave unembedded and let later
      // passes (with different orders) try again.
      return;
    }

    // Chain construction, greedy-Steiner style: connect neighbor chains in
    // ascending distance-from-root order, and let each path start from the
    // *closest point of the chain built so far* (the distance fields cover
    // every qubit, so this costs nothing extra). This reuses path segments
    // instead of building a star of independent paths, which keeps chains
    // from ballooning.
    std::vector<std::size_t> by_distance(nbrs_.size());
    for (std::size_t i = 0; i < nbrs_.size(); ++i) by_distance[i] = i;
    std::sort(by_distance.begin(), by_distance.end(),
              [&](std::size_t a, std::size_t b) {
                return fields[a].dist[root] < fields[b].dist[root];
              });

    std::vector<Graph::Vertex> chain;
    auto add = [&](Graph::Vertex q) {
      if (!in_chain_[q]) {
        in_chain_[q] = 1;
        chain.push_back(q);
      }
    };
    add(root);
    for (std::size_t i : by_distance) {
      // Closest contact point between the current chain and neighbor i.
      Graph::Vertex start = chain.front();
      for (Graph::Vertex q : chain) {
        if (fields[i].dist[q] < fields[i].dist[start]) start = q;
      }
      Graph::Vertex q = start;
      while (fields[i].dist[q] > 0.0) {
        const Graph::Vertex p = fields[i].parent[q];
        if (fields[i].dist[p] > 0.0) add(p);  // stop at the neighbor chain
        q = p;
      }
    }
    for (Graph::Vertex q : chain) in_chain_[q] = 0;
    adopt_chain(v, std::move(chain));
    if (log_level() <= LogLevel::kDebug) {
      for (Graph::Vertex q : chains_[v]) {
        if (usage_[q] > 1) {
          Log(LogLevel::kDebug)
              << "route v" << v << " adopted overlapping q" << q
              << " (weight " << weight(q) << ", root " << root
              << ", best_cost " << best_cost << ", chain "
              << chains_[v].size() << ", penalty " << penalty << ")";
        }
      }
    }
  }

  const Graph& logical_;
  const Graph& physical_;
  Rng& rng_;
  EmbedOptions options_;
  std::vector<std::vector<Graph::Vertex>> chains_;
  std::vector<unsigned> usage_;
  // Buffers reused by every route_variable call.
  ChainSearch search_;
  std::vector<DistField> fields_;
  std::vector<double> class_weight_;  // by usage value
  std::vector<Graph::Vertex> nbrs_;
  std::vector<char> in_chain_;        // all zero between routes
  std::uint64_t relaxations_ = 0;
};

}  // namespace

namespace {

// BFS ball of roughly `target` usable qubits around a random usable center.
std::vector<Graph::Vertex> bfs_ball(const Graph& physical, std::size_t target,
                                    Rng& rng) {
  const std::size_t n = physical.num_vertices();
  Graph::Vertex center = 0;
  for (std::size_t attempts = 0; attempts < 64; ++attempts) {
    center = static_cast<Graph::Vertex>(rng.below(n));
    if (physical.degree(center) > 0) break;
  }
  std::vector<bool> seen(n, false);
  std::vector<Graph::Vertex> ball{center};
  seen[center] = true;
  for (std::size_t head = 0; head < ball.size() && ball.size() < target;
       ++head) {
    for (Graph::Vertex w : physical.neighbors(ball[head])) {
      if (!seen[w]) {
        seen[w] = true;
        ball.push_back(w);
        if (ball.size() >= target) break;
      }
    }
  }
  return ball;
}

}  // namespace

std::optional<Embedding> find_embedding(const Graph& logical,
                                        const Graph& physical, Rng& rng,
                                        const EmbedOptions& options) {
  if (!std::isfinite(options.penalty_base) || options.penalty_base < 0.0) {
    return std::nullopt;
  }
  if (logical.num_vertices() == 0) return Embedding{};

  std::uint64_t relaxations = 0;
  for (std::size_t attempt = 0; attempt < options.tries; ++attempt) {
    // Working on a compact subregion of a large device is dramatically
    // faster (distance fields shrink) *and* yields shorter chains; the
    // region grows geometrically across attempts, ending at the full
    // device.
    const std::size_t want =
        std::max<std::size_t>(128, logical.num_vertices() * 16)
        << (2 * attempt);
    const bool use_region =
        want < physical.num_vertices() && attempt + 1 < options.tries;
    std::vector<Graph::Vertex> region;
    Graph sub;
    if (use_region) {
      region = bfs_ball(physical, want, rng);
      sub = physical.induced_subgraph(region);
    }
    Embedder embedder(logical, use_region ? sub : physical, rng, options);
    auto result = embedder.run();
    relaxations += embedder.relaxations();
    if (!result) continue;
    if (use_region) {
      for (auto& chain : result->chains) {
        for (auto& q : chain) q = region[q];  // back to device ids
      }
    }
    result->relaxations = relaxations;
    return result;
  }
  return std::nullopt;
}

EmbeddingCheck validate_embedding(const Graph& logical, const Graph& physical,
                                  const Embedding& embedding) {
  EmbeddingCheck check;
  if (embedding.chains.size() != logical.num_vertices()) {
    check.error = "chain count != logical vertex count";
    return check;
  }
  std::vector<int> owner(physical.num_vertices(), -1);
  for (std::size_t v = 0; v < embedding.chains.size(); ++v) {
    const auto& chain = embedding.chains[v];
    if (chain.empty()) {
      check.error = "empty chain for variable " + std::to_string(v);
      return check;
    }
    for (Graph::Vertex q : chain) {
      if (q >= physical.num_vertices()) {
        check.error = "chain qubit out of range";
        return check;
      }
      if (owner[q] != -1) {
        check.error = "qubit " + std::to_string(q) + " shared by chains " +
                      std::to_string(owner[q]) + " and " + std::to_string(v);
        return check;
      }
      owner[q] = static_cast<int>(v);
    }
    // Connectivity within the chain.
    std::vector<Graph::Vertex> stack{chain[0]};
    std::vector<bool> seen(physical.num_vertices(), false);
    seen[chain[0]] = true;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const Graph::Vertex q = stack.back();
      stack.pop_back();
      for (Graph::Vertex w : physical.neighbors(q)) {
        if (!seen[w] && owner[w] == static_cast<int>(v)) {
          seen[w] = true;
          ++reached;
          stack.push_back(w);
        }
      }
    }
    if (reached != chain.size()) {
      check.error = "chain for variable " + std::to_string(v) +
                    " is not connected";
      return check;
    }
  }
  for (const auto& [a, b] : logical.edges()) {
    bool coupled = false;
    for (Graph::Vertex qa : embedding.chains[a]) {
      for (Graph::Vertex qb : embedding.chains[b]) {
        if (physical.has_edge(qa, qb)) {
          coupled = true;
          break;
        }
      }
      if (coupled) break;
    }
    if (!coupled) {
      check.error = "logical edge (" + std::to_string(a) + "," +
                    std::to_string(b) + ") has no physical coupler";
      return check;
    }
  }
  check.ok = true;
  return check;
}

}  // namespace nck
