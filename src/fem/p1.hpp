#pragma once
// P1 (linear) Galerkin discretization of −Δu = f with Dirichlet boundary
// conditions on the adaptive meshes. One vertex unknown per alive mesh
// vertex; boundary values come from the analytic field (the paper's test
// problems prescribe the exact solution on ∂Ω).

#include <vector>

#include "fem/cg.hpp"
#include "fem/problems.hpp"
#include "fem/sparse.hpp"
#include "mesh/simplex_mesh.hpp"

namespace pnr::fem {

struct P1System {
  CsrMatrix matrix;
  std::vector<double> rhs;
  /// equation index -> mesh vertex
  std::vector<mesh::VertIdx> dof_to_vert;
  /// mesh vertex -> equation index (-1 for dead slots)
  std::vector<std::int32_t> vert_to_dof;
};

P1System assemble_poisson(const mesh::TriMesh& mesh, const ScalarField2& field);
P1System assemble_poisson(const mesh::TetMesh& mesh, const ScalarField3& field);

struct SolveResult {
  std::vector<double> u;  ///< by dof index
  CgResult cg;
  double max_error = 0.0;  ///< L∞ vertex error vs the analytic solution
};

SolveResult solve_poisson(const mesh::TriMesh& mesh, const ScalarField2& field,
                          double tol = 1e-9);
SolveResult solve_poisson(const mesh::TetMesh& mesh, const ScalarField3& field,
                          double tol = 1e-9);

}  // namespace pnr::fem
