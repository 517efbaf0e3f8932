#pragma once
// Mesh file I/O.
//
// * Triangle / TetGen format (.node + .ele, Shewchuk's tools): the de facto
//   exchange format for simplicial meshes. Reading produces a 0-level mesh
//   ready for adaptation; writing dumps the current leaves as a flat mesh.
// * VTK legacy format (.vtk, ASCII unstructured grid) with an optional
//   per-cell "partition" scalar — loadable in ParaView, and the only way to
//   look at the 3D experiments.

#include <optional>
#include <string>
#include <vector>

#include "mesh/simplex_mesh.hpp"
#include "partition/partition.hpp"

namespace pnr::mesh {

/// Write `basename`.node and `basename`.ele (1-based indices, no attributes)
/// describing the current leaf mesh. Returns false on I/O failure.
template <typename Mesh>
bool write_triangle_files(const Mesh& mesh, const std::string& basename);

/// Read `basename`.node/.ele into a fresh 0-level mesh. Accepts 0- or
/// 1-based indices, comment lines (#), and optional attribute/marker
/// columns. Hardened against hostile input: absurd header counts,
/// duplicate ids, truncation, out-of-range indices, and degenerate or
/// non-manifold geometry all return nullopt with no partial state and no
/// aborts (validation runs through mesh/build.hpp before assembly).
std::optional<TriMesh> read_triangle_files(const std::string& basename);
std::optional<TetMesh> read_tetgen_files(const std::string& basename);

/// Legacy-VTK dump of the leaves; `assign` (one entry per element of
/// `elems`, may be empty) becomes a CELL_DATA scalar named "partition".
template <typename Mesh>
bool write_vtk(const Mesh& mesh, const std::vector<ElemIdx>& elems,
               const std::vector<part::PartId>& assign,
               const std::string& path);

}  // namespace pnr::mesh
