#pragma once
// Elementwise L∞ error indicator and refine/coarsen marking. The indicator
// is the maximum deviation of the analytic field over the element from its
// centroid value — an O(h·|∇u|) proxy for the interpolation error that the
// paper's L∞-norm adaptation equidistributes.

#include <vector>

#include "fem/problems.hpp"
#include "mesh/simplex_mesh.hpp"

namespace pnr::fem {

double element_indicator(const mesh::TriMesh& mesh, mesh::ElemIdx e,
                         const ScalarField2& field);
double element_indicator(const mesh::TetMesh& mesh, mesh::ElemIdx e,
                         const ScalarField3& field);

struct MarkOptions {
  double refine_threshold = 1e-3;   ///< refine when indicator exceeds this
  double coarsen_threshold = 0.0;   ///< coarsen when strictly below this
  int max_level = 40;               ///< never refine past this tree depth
};

std::vector<mesh::ElemIdx> mark_for_refinement(const mesh::TriMesh& mesh,
                                               const ScalarField2& field,
                                               const MarkOptions& options);
std::vector<mesh::ElemIdx> mark_for_refinement(const mesh::TetMesh& mesh,
                                               const ScalarField3& field,
                                               const MarkOptions& options);

std::vector<mesh::ElemIdx> mark_for_coarsening(const mesh::TriMesh& mesh,
                                               const ScalarField2& field,
                                               const MarkOptions& options);
std::vector<mesh::ElemIdx> mark_for_coarsening(const mesh::TetMesh& mesh,
                                               const ScalarField3& field,
                                               const MarkOptions& options);

}  // namespace pnr::fem
