#pragma once
// Quasi-uniform unstructured initial meshes over the paper's domains
// Ω² = (-1,1)² and Ω³ = (-1,1)³. Structured grids are split into simplices
// and interior vertices are jittered (bounded so no element can invert),
// yielding the "irregular meshes of about the same element size" the paper
// starts from. With nx = ny = 79 the 2D mesh has 12,482 triangles
// (paper: 12,498); with 12×12×12 cubes the 3D mesh has 10,368 tetrahedra
// (paper: 9,540).

#include <cstdint>

#include "mesh/simplex_mesh.hpp"

namespace pnr::mesh {

/// nx × ny cells on (-1,1)², two triangles per cell with alternating
/// diagonals; `jitter` ∈ [0, 0.45) displaces interior vertices by at most
/// jitter·h in each coordinate.
TriMesh structured_tri_mesh(int nx, int ny, double jitter = 0.25,
                            std::uint64_t seed = 1);

/// nx × ny × nz cells on (-1,1)³, six tetrahedra per cell (Kuhn/Freudenthal
/// subdivision, conforming across cells).
TetMesh structured_tet_mesh(int nx, int ny, int nz, double jitter = 0.2,
                            std::uint64_t seed = 1);

/// The paper's initial meshes (Section 6).
TriMesh paper_initial_tri_mesh(std::uint64_t seed = 1);   // 12,482 triangles
TetMesh paper_initial_tet_mesh(std::uint64_t seed = 1);   // 10,368 tets

}  // namespace pnr::mesh
