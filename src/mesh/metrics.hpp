#pragma once
// Mesh-level partition quality measures. The paper reports quality as the
// "number of shared vertices": mesh vertices adjacent to elements assigned
// to more than one processor (they carry duplicated unknowns and drive the
// communication volume of the solver).

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/simplex_mesh.hpp"
#include "partition/partition.hpp"

namespace pnr::mesh {

/// `assign[i]` is the subset of leaf `elems[i]`. Each vertex touching ≥ 2
/// distinct subsets counts once.
template <typename Mesh>
std::int64_t shared_vertices(const Mesh& mesh,
                             const std::vector<ElemIdx>& elems,
                             std::span<const part::PartId> assign);

/// shared_vertices for an assignment that gives every refinement tree whole
/// to `coarse_assign[root]`: the same count, walking only the trees that
/// meet a differently assigned tree. A vertex touched by two subsets lies in
/// the simplex of M^0 that their roots share, whose corners are then M^0
/// vertices touched by both; so one pass over the roots settles every M^0
/// vertex, and only the trees with a shared corner are walked leaf by leaf.
template <typename Mesh>
std::int64_t whole_tree_shared_vertices(
    const Mesh& mesh, std::span<const part::PartId> coarse_assign);

/// Number of distinct subsets adjacent to each subset (the paper notes that
/// on high-latency networks the number of adjacent subdomains matters too).
/// Returns per-part counts.
std::vector<std::int32_t> adjacent_subdomains(
    const graph::Graph& fine_dual, std::span<const part::PartId> assign,
    part::PartId num_parts);

struct MeshQuality {
  double min_angle_deg = 0.0;   ///< over all leaf triangles (2D only)
  double max_angle_deg = 0.0;
  double min_volume = 0.0;      ///< min leaf area/volume
  double max_volume = 0.0;
};

/// Leaf measure range, and in 2D the leaf angle range (3D leaves the
/// angles at 0).
template <typename Mesh>
MeshQuality mesh_quality(const Mesh& mesh);

}  // namespace pnr::mesh
