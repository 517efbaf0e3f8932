#pragma once
// Dual graph extraction — the bridge between meshes and partitioners.
//
// * fine dual graph: one vertex per *leaf* element, an edge when two leaves
//   share an edge (2D) or face (3D); unit weights. This is what the RSB /
//   Multilevel-KL baselines partition, exactly as the paper's Section 7 does.
// Every reader is one template over the mesh type (mesh/simplex_mesh.hpp),
// instantiated for TriMesh and TetMesh.
//
// * nested (coarse) dual graph: one vertex per *initial* element Ω_a with
//   weight = number of leaves of its refinement tree τ_a; an edge between
//   initial elements with weight = number of adjacent leaf pairs across
//   their interface. This is the graph G that PNR partitions (Section 5).

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "mesh/simplex_mesh.hpp"
#include "partition/partition.hpp"

namespace pnr::mesh {

struct FineDual {
  graph::Graph graph;
  std::vector<ElemIdx> elems;          ///< dense dual vertex -> element id
  std::vector<graph::VertexId> dense;  ///< element id -> dual vertex (or -1)
};

template <typename Mesh>
FineDual fine_dual_graph(const Mesh& mesh);

/// The PNR coarse graph G of M^0 with leaf-count vertex weights and
/// adjacent-leaf-pair edge weights.
template <typename Mesh>
graph::Graph nested_dual_graph(const Mesh& mesh);

/// The weight changes of G accumulated by a mesh between two drains of
/// SimplexMesh::drain_dual_delta(). `vertices` lists, sorted and
/// deduplicated, the initial elements whose refinement trees were touched by
/// bisection or coarsening; only their leaf-count vertex weights and the
/// edge weights of interfaces incident to them can have moved. G's topology
/// never changes (Section 5: M^0 is fixed), so a consumer holding a graph
/// that was current at `prev_epoch` reaches `epoch` by re-propagating those
/// weights in place. Any epoch gap means another consumer drained the mesh
/// in between and a full nested_dual_graph rebuild is required.
struct DualWeightDelta {
  std::vector<ElemIdx> vertices;
  std::uint64_t prev_epoch = 0;
  std::uint64_t epoch = 0;
};

/// Re-propagate the delta's vertex weights and incident interface weights
/// into `g`, a nested_dual_graph of `mesh` current at `delta.prev_epoch`.
/// Returns false — with `g` partially updated, caller must rebuild — if the
/// mesh disagrees with g's fixed topology (an interface weight at zero or an
/// adjacency g does not know about), which indicates the graph was not built
/// from this mesh.
template <typename Mesh>
bool apply_dual_delta(const Mesh& mesh, const DualWeightDelta& delta,
                      graph::Graph& g);

/// Leaf centroids in dense dual-vertex order (row-major n×2 / n×3), for the
/// geometric partitioner.
template <typename Mesh>
std::vector<double> leaf_centroids(const Mesh& mesh,
                                   const std::vector<ElemIdx>& elems);

/// Initial-element centroids in nested-dual vertex order (row-major n×2 /
/// n×3), for the geometric engines over the coarse graph. M^0 is fixed, so
/// one computation per session suffices.
template <typename Mesh>
std::vector<double> coarse_centroids(const Mesh& mesh);

/// Expand a partition of the nested coarse graph to the fine leaves: leaf i
/// (dense order of `elems`) inherits the subset of its level-0 ancestor.
template <typename Mesh>
std::vector<part::PartId> project_coarse_assignment(
    const Mesh& mesh, const std::vector<ElemIdx>& elems,
    std::span<const part::PartId> coarse_assign);

}  // namespace pnr::mesh
