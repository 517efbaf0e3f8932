#include "mesh/dual.hpp"

#include "exec/pool.hpp"
#include "graph/builder.hpp"
#include "util/assert.hpp"
#include "util/prof.hpp"

namespace pnr::mesh {

template <typename Mesh>
FineDual fine_dual_graph(const Mesh& mesh) {
  PNR_PROF_SPAN("mesh.dual");
  FineDual out;
  out.elems = mesh.leaf_elements();
  out.dense.assign(mesh.element_slots(), -1);
  const auto num_leaves = static_cast<std::int64_t>(out.elems.size());
  exec::Pool& pool = exec::default_pool();
  pool.parallel_for(num_leaves, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i)
      out.dense[static_cast<std::size_t>(
          out.elems[static_cast<std::size_t>(i)])] =
          static_cast<graph::VertexId>(i);
  });

  // The interface walk goes through a mesh callback and stays serial; it
  // only appends to a flat edge batch, which the deterministic parallel
  // assembler then turns into the CSR graph.
  std::vector<graph::WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(num_leaves) * 3 / 2);
  mesh.for_each_leaf_interface([&](ElemIdx e1, ElemIdx e2) {
    if (e1 == kNoElem || e2 == kNoElem) return;
    edges.push_back({out.dense[static_cast<std::size_t>(e1)],
                     out.dense[static_cast<std::size_t>(e2)], 1});
  });
  out.graph = graph::build_csr_from_edges(
      static_cast<graph::VertexId>(num_leaves), edges, {});
  return out;
}

/// Both meshes maintain per-coarse leaf counts and interface weights
/// incrementally (the paper's P1 phase), so assembling G is O(|G|), not
/// O(fine mesh).
template <typename Mesh>
graph::Graph nested_dual_graph(const Mesh& mesh) {
  const auto n0 = mesh.num_initial_elements();
  graph::GraphBuilder builder(n0);
  for (ElemIdx c = 0; c < n0; ++c)
    builder.set_vertex_weight(c, mesh.leaf_count(c));
  mesh.for_each_coarse_interface(
      [&](ElemIdx c1, ElemIdx c2, std::int64_t w) {
        builder.add_edge(c1, c2, w);
      });
  return builder.build();
}

template <typename Mesh>
bool apply_dual_delta(const Mesh& mesh, const DualWeightDelta& delta,
                      graph::Graph& g) {
  PNR_PROF_SPAN("mesh.dual_delta");
  PNR_REQUIRE(g.num_vertices() == mesh.num_initial_elements());
  for (const ElemIdx c : delta.vertices) {
    g.set_vertex_weight(c, mesh.leaf_count(c));
    // Every interface whose weight moved has at least one endpoint in the
    // dirty set (only bisection/coarsening under an endpoint can change the
    // adjacent-leaf-pair count), so refreshing each dirty vertex's full
    // adjacency covers all edge changes. A conforming mesh keeps every M^0
    // interface populated, so a zero here means `g` is not this mesh's dual.
    for (const graph::VertexId x : g.neighbors(c)) {
      const std::int64_t w =
          mesh.coarse_interface_weight(c, static_cast<ElemIdx>(x));
      if (w <= 0) return false;
      if (!g.set_edge_weight(c, x, w)) return false;
    }
  }
  return true;
}

namespace {

/// Row-major n×D centroids of elements elem_of(0..n-1).
template <typename Mesh, typename ElemOf>
std::vector<double> centroids(const Mesh& mesh, std::size_t n,
                              ElemOf&& elem_of) {
  constexpr auto D = static_cast<std::size_t>(Mesh::kDim);
  std::vector<double> out(n * D);
  exec::default_pool().parallel_for(
      static_cast<std::int64_t>(n), [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t k = b; k < e; ++k) {
          const auto i = static_cast<std::size_t>(k);
          const auto c = coords(mesh.centroid(elem_of(i)));
          for (std::size_t d = 0; d < D; ++d) out[i * D + d] = c[d];
        }
      });
  return out;
}

}  // namespace

template <typename Mesh>
std::vector<double> leaf_centroids(const Mesh& mesh,
                                   const std::vector<ElemIdx>& elems) {
  return centroids(mesh, elems.size(),
                   [&](std::size_t i) { return elems[i]; });
}

template <typename Mesh>
std::vector<double> coarse_centroids(const Mesh& mesh) {
  return centroids(
      mesh, static_cast<std::size_t>(mesh.num_initial_elements()),
      [](std::size_t i) { return static_cast<ElemIdx>(i); });
}

template <typename Mesh>
std::vector<part::PartId> project_coarse_assignment(
    const Mesh& mesh, const std::vector<ElemIdx>& elems,
    std::span<const part::PartId> coarse_assign) {
  PNR_REQUIRE(coarse_assign.size() ==
              static_cast<std::size_t>(mesh.num_initial_elements()));
  std::vector<part::PartId> out(elems.size());
  exec::default_pool().parallel_for(
      static_cast<std::int64_t>(elems.size()),
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t k = b; k < e; ++k) {
          const auto i = static_cast<std::size_t>(k);
          out[i] = coarse_assign[static_cast<std::size_t>(
              mesh.element(elems[i]).coarse)];
        }
      });
  return out;
}

template FineDual fine_dual_graph(const TriMesh&);
template FineDual fine_dual_graph(const TetMesh&);
template graph::Graph nested_dual_graph(const TriMesh&);
template graph::Graph nested_dual_graph(const TetMesh&);
template bool apply_dual_delta(const TriMesh&, const DualWeightDelta&,
                               graph::Graph&);
template bool apply_dual_delta(const TetMesh&, const DualWeightDelta&,
                               graph::Graph&);
template std::vector<double> leaf_centroids(const TriMesh&,
                                            const std::vector<ElemIdx>&);
template std::vector<double> leaf_centroids(const TetMesh&,
                                            const std::vector<ElemIdx>&);
template std::vector<double> coarse_centroids(const TriMesh&);
template std::vector<double> coarse_centroids(const TetMesh&);
template std::vector<part::PartId> project_coarse_assignment(
    const TriMesh&, const std::vector<ElemIdx>&, std::span<const part::PartId>);
template std::vector<part::PartId> project_coarse_assignment(
    const TetMesh&, const std::vector<ElemIdx>&, std::span<const part::PartId>);

}  // namespace pnr::mesh
