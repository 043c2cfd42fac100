#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace nck {

Graph::Graph(std::size_t num_vertices) : adjacency_(num_vertices) {}

Graph::Vertex Graph::add_vertex() {
  adjacency_.emplace_back();
  return static_cast<Vertex>(adjacency_.size() - 1);
}

bool Graph::add_edge(Vertex u, Vertex v) {
  if (u >= num_vertices() || v >= num_vertices()) {
    throw std::out_of_range("Graph::add_edge: vertex out of range");
  }
  if (u == v || has_edge(u, v)) return false;
  if (u > v) std::swap(u, v);
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  edges_.emplace_back(u, v);
  return true;
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  const auto& smaller =
      adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u] : adjacency_[v];
  const Vertex other = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(smaller.begin(), smaller.end(), other) != smaller.end();
}

void Graph::reserve(std::span<const std::size_t> degrees,
                    std::size_t num_edges) {
  const std::size_t n = std::min(degrees.size(), adjacency_.size());
  for (std::size_t v = 0; v < n; ++v) adjacency_[v].reserve(degrees[v]);
  edges_.reserve(num_edges);
}

std::vector<Graph::Edge> Graph::complement_edges() const {
  std::vector<Edge> result;
  const auto n = static_cast<Vertex>(num_vertices());
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (!has_edge(u, v)) result.emplace_back(u, v);
    }
  }
  return result;
}

bool Graph::connected() const {
  if (num_vertices() == 0) return true;
  std::vector<bool> seen(num_vertices(), false);
  std::vector<Vertex> stack{0};
  seen[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    for (Vertex w : adjacency_[v]) {
      if (!seen[w]) {
        seen[w] = true;
        ++count;
        stack.push_back(w);
      }
    }
  }
  return count == num_vertices();
}

Graph Graph::induced_subgraph(std::span<const Vertex> keep) const {
  std::vector<std::int64_t> remap(num_vertices(), -1);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    remap[keep[i]] = static_cast<std::int64_t>(i);
  }
  Graph sub(keep.size());
  std::vector<std::size_t> degrees(keep.size(), 0);
  std::size_t num_edges = 0;
  for (const auto& [u, v] : edges_) {
    if (remap[u] >= 0 && remap[v] >= 0) {
      ++degrees[static_cast<std::size_t>(remap[u])];
      ++degrees[static_cast<std::size_t>(remap[v])];
      ++num_edges;
    }
  }
  sub.reserve(degrees, num_edges);
  for (const auto& [u, v] : edges_) {
    if (remap[u] >= 0 && remap[v] >= 0) {
      sub.add_edge(static_cast<Vertex>(remap[u]), static_cast<Vertex>(remap[v]));
    }
  }
  return sub;
}

UnionFind::UnionFind(std::size_t n) : parent_(n), size_(n, 1), num_sets_(n) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
}

std::size_t UnionFind::find(std::size_t x) noexcept {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) noexcept {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (size_[a] < size_[b]) std::swap(a, b);
  parent_[b] = a;
  size_[a] += size_[b];
  --num_sets_;
  return true;
}

}  // namespace nck
