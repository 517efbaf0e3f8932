#pragma once
// SVG rendering of partitioned 2D meshes — how we reproduce the mesh
// pictures of Figures 1 and 6 (the adapted corner and moving-peak meshes).

#include <string>
#include <vector>

#include "mesh/simplex_mesh.hpp"
#include "partition/partition.hpp"

namespace pnr::mesh {

struct SvgOptions {
  int width_px = 900;
  bool draw_edges = true;
  double stroke_width = 0.15;
};

/// Render the leaves filled by subset color (pass an empty assignment to
/// draw the bare mesh). Returns false on I/O failure.
bool write_partition_svg(const TriMesh& mesh,
                         const std::vector<ElemIdx>& elems,
                         const std::vector<part::PartId>& assign,
                         const std::string& path,
                         const SvgOptions& options = {});

}  // namespace pnr::mesh
