#pragma once
// Elementwise L∞ error indicator and refine/coarsen marking. The indicator
// is the maximum deviation of the analytic field over the element from its
// centroid value — an O(h·|∇u|) proxy for the interpolation error that the
// paper's L∞-norm adaptation equidistributes. Each function is one template
// over the mesh (TriMesh or TetMesh) and its MeshField.

#include <vector>

#include "fem/problems.hpp"
#include "mesh/simplex_mesh.hpp"

namespace pnr::fem {

template <typename Mesh>
double element_indicator(const Mesh& mesh, mesh::ElemIdx e,
                         const MeshField<Mesh>& field);

struct MarkOptions {
  double refine_threshold = 1e-3;   ///< refine when indicator exceeds this
  double coarsen_threshold = 0.0;   ///< coarsen when strictly below this
  int max_level = 40;               ///< never refine past this tree depth
};

template <typename Mesh>
std::vector<mesh::ElemIdx> mark_for_refinement(const Mesh& mesh,
                                               const MeshField<Mesh>& field,
                                               const MarkOptions& options);

template <typename Mesh>
std::vector<mesh::ElemIdx> mark_for_coarsening(const Mesh& mesh,
                                               const MeshField<Mesh>& field,
                                               const MarkOptions& options);

}  // namespace pnr::fem
