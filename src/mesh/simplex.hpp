#pragma once
// The read-only vocabulary TriMesh and TetMesh share, so code that only
// reads a mesh is written once as a template over the mesh type:
//
//   Mesh::kDim, Mesh::kVertsPerElem   2/3 and 3/4
//   Mesh::Point, Mesh::Element        Point2/Point3 and Tri/Tet
//   mesh.element(e)                   the element record (v, parent, child,
//                                     mid, coarse, tag, level, leaf, alive)
//   coords(mesh.vertex(v))            a vertex's D coordinates (types.hpp)
//   for_each_leaf_interface(mesh, f)  the leaf edges (2D) or faces (3D)
//   subtree_elements(mesh, root)      a refinement tree in payload order
//
// Where the dimension matters, generic code branches on Mesh::kDim; it never
// tests for a concrete mesh class.

#include <vector>

#include "mesh/tet_mesh.hpp"
#include "mesh/tri_mesh.hpp"

namespace pnr::mesh {

/// Visit every leaf interface — an edge in 2D, a face in 3D — once, in the
/// mesh's own order: f(e1, e2), where e2 is kNoElem on the domain boundary.
template <typename Mesh, typename F>
void for_each_leaf_interface(const Mesh& mesh, F&& f) {
  if constexpr (Mesh::kDim == 2)
    mesh.for_each_leaf_edge(
        [&](VertIdx, VertIdx, ElemIdx e1, ElemIdx e2) { f(e1, e2); });
  else
    mesh.for_each_leaf_face(
        [&](VertIdx, VertIdx, VertIdx, ElemIdx e1, ElemIdx e2) { f(e1, e2); });
}

/// The refinement-history subtree under `root` in the depth-first order
/// migration payloads are packed in: child[0] is pushed first, so child[1]'s
/// subtree is visited first.
template <typename Mesh>
std::vector<ElemIdx> subtree_elements(const Mesh& mesh, ElemIdx root) {
  std::vector<ElemIdx> stack{root};
  std::vector<ElemIdx> nodes;
  while (!stack.empty()) {
    const ElemIdx e = stack.back();
    stack.pop_back();
    nodes.push_back(e);
    const auto& t = mesh.element(e);
    if (!t.leaf) {
      stack.push_back(t.child[0]);
      stack.push_back(t.child[1]);
    }
  }
  return nodes;
}

}  // namespace pnr::mesh
