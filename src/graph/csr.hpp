#pragma once
// Compact CSR representation of an undirected weighted graph — the common
// currency between the mesh layer (dual graphs), the partitioners, and the
// PNR core. Vertex and edge weights are integral because in this system they
// are *counts* (leaves of refinement trees, adjacent leaf pairs), and the
// paper's cut/migration numbers are exact integers.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pnr::graph {

using VertexId = std::int32_t;
using Weight = std::int64_t;

constexpr VertexId kInvalidVertex = -1;

/// Undirected graph in symmetric CSR form. Every edge {u,v} is stored twice
/// (once in each endpoint's adjacency list) with equal weight.
class Graph {
 public:
  Graph() = default;

  /// Takes ownership of prebuilt CSR arrays; validates shape in debug builds.
  Graph(std::vector<std::int64_t> xadj, std::vector<VertexId> adjncy,
        std::vector<Weight> adjwgt, std::vector<Weight> vwgt);

  VertexId num_vertices() const { return static_cast<VertexId>(vwgt_.size()); }
  /// Number of undirected edges (half the stored directed arcs).
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(adjncy_.size()) / 2;
  }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjncy_.data() + xadj_[v],
            static_cast<std::size_t>(xadj_[v + 1] - xadj_[v])};
  }
  std::span<const Weight> edge_weights(VertexId v) const {
    return {adjwgt_.data() + xadj_[v],
            static_cast<std::size_t>(xadj_[v + 1] - xadj_[v])};
  }

  std::int64_t degree(VertexId v) const { return xadj_[v + 1] - xadj_[v]; }

  /// Paired neighbor/edge-weight spans for the common zipped iteration.
  struct Adjacency {
    std::span<const VertexId> nbrs;
    std::span<const Weight> wgts;
    std::size_t size() const { return nbrs.size(); }
  };
  Adjacency adjacency(VertexId v) const {
    return {neighbors(v), edge_weights(v)};
  }

  Weight vertex_weight(VertexId v) const { return vwgt_[v]; }
  void set_vertex_weight(VertexId v, Weight w) { vwgt_[v] = w; }

  /// Sum of all vertex weights.
  Weight total_vertex_weight() const;

  /// Sum of weights of edges incident to v.
  Weight weighted_degree(VertexId v) const;

  /// Weight of edge {u,v}; 0 if absent. O(deg(u)).
  Weight edge_weight(VertexId u, VertexId v) const;

  /// Update the weight of existing edge {u,v} in both directions.
  /// Returns false (and changes nothing) if the edge does not exist.
  bool set_edge_weight(VertexId u, VertexId v, Weight w);

  const std::vector<std::int64_t>& xadj() const { return xadj_; }
  const std::vector<VertexId>& adjncy() const { return adjncy_; }
  const std::vector<Weight>& adjwgt() const { return adjwgt_; }
  const std::vector<Weight>& vwgt() const { return vwgt_; }

  /// Full structural validation (symmetry, sorted-free duplicate check,
  /// weight positivity, no self loops). Used by tests and debug asserts.
  /// Returns an empty string if valid, else a description of the violation.
  std::string validate() const;

 private:
  std::vector<std::int64_t> xadj_{0};
  std::vector<VertexId> adjncy_;
  std::vector<Weight> adjwgt_;
  std::vector<Weight> vwgt_;
};

}  // namespace pnr::graph
