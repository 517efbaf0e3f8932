#pragma once
// One adaptive simplex mesh for both dimensions, PARED's mesh library
// (Section 2 of the paper): SimplexMesh<2> is the triangle mesh (TriMesh),
// SimplexMesh<3> the tetrahedral mesh (TetMesh).
//  * refinement is Rivara's longest-edge bisection with recursive
//    conformity propagation: a leaf is bisected at its longest edge only
//    when every leaf around that edge has it as its longest edge too; the
//    others are refined first, so the mesh stays conforming;
//  * refined elements are never destroyed: each initial element roots a
//    refinement-history tree whose leaves are the current (most refined)
//    mesh; coarsening replaces a sibling pair by its parent once their
//    bisection midpoint is used by no other leaf;
//  * every element knows its level-0 ancestor, so the PNR coarse dual graph
//    weights (leaves per initial element, adjacent leaf pairs per coarse
//    interface) are maintained in O(1) per bisection.
//
// Code above the mesh is written once, as a template over the mesh type,
// against this vocabulary:
//
//   Mesh::kDim, Mesh::kVertsPerElem   2/3 and 3/4
//   Mesh::Point, Mesh::Element        Point2/Point3 and the element record
//                                     (v, parent, child, mid, coarse, tag,
//                                     level, leaf, alive)
//   mesh.element(e)                   the element record
//   coords(mesh.vertex(v))            a vertex's D coordinates (types.hpp)
//   mesh.signed_measure(e)            signed area (2D) or volume (3D)
//   mesh.for_each_leaf_interface(f)   the leaf edges (2D) or faces (3D)
//   subtree_elements(mesh, root)      a refinement tree in payload order
//
// Where the dimension matters, generic code branches on Mesh::kDim; it never
// tests for a mesh type.
//
// The algorithm is written once; these per-dimension pieces keep the
// bisection order of the former separate 2D and 3D classes bit for bit:
//  * child layout: 2D finds the bisected edge {a,b} in the cyclic order
//    (va, vb, vc) and makes (va, m, vc) and (m, vb, vc); 3D substitutes the
//    midpoint m for b in child 0 and for a in child 1;
//  * edge tables: the longest edge is scanned over (0,1), (1,2), (2,0) in
//    2D and over (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) in 3D, as
//    (v[i], v[j]); ties go to the larger edge_key, so every leaf around an
//    edge picks the same one;
//  * edge star: in 2D the leaves around an edge are its facet's pair, the
//    leaf being refined first; 3D keeps an edge -> leaves map and bisects
//    them in its stored order;
//  * facets are edges keyed by edge_key in 2D and faces keyed by face_key in
//    3D (so 3D meshes hold fewer than 2^21 vertices);
//  * refine's runaway guard is 64 per leaf and 1024 per mark in 2D, 256 and
//    4096 in 3D; coarsening asserts one or two parents per midpoint in 2D.

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mesh/types.hpp"

namespace pnr::mesh {

struct DualWeightDelta;  // mesh/dual.hpp

template <int D>
class SimplexMesh {
  static_assert(D == 2 || D == 3, "SimplexMesh is for triangles and tets");

 public:
  static constexpr int kDim = D;
  static constexpr int kVertsPerElem = D + 1;

  using Point = std::conditional_t<D == 2, Point2, Point3>;
  using Corners = std::array<VertIdx, D + 1>;

  struct Element {
    Corners v = [] {
      Corners none;
      none.fill(kNoVert);
      return none;
    }();
    ElemIdx parent = kNoElem;
    std::array<ElemIdx, 2> child{kNoElem, kNoElem};
    VertIdx mid = kNoVert;     ///< bisection midpoint (set when refined)
    ElemIdx coarse = kNoElem;  ///< level-0 ancestor
    /// User payload that follows adaptation: children inherit it on
    /// bisection, a restored parent takes it back from its first child on
    /// coarsening. PARED uses it to carry the owning processor.
    std::int32_t tag = -1;
    std::int16_t level = 0;
    bool leaf = false;   ///< current finest-mesh member
    bool alive = false;  ///< false for recycled slots
  };

  // ---- construction -------------------------------------------------------

  /// Add a vertex / initial element while building the 0-level mesh.
  VertIdx add_vertex(const Point& p);
  ElemIdx add_element(const Corners& corners);

  /// Freeze the 0-level mesh: orient every element positively, build the
  /// leaf incidence maps, assign coarse ancestors. Must be called exactly
  /// once before any refinement.
  void finalize();

  // ---- queries -------------------------------------------------------------

  ElemIdx num_initial_elements() const { return num_initial_; }
  std::int64_t num_leaves() const { return num_leaves_; }
  std::int64_t num_vertices_alive() const { return num_verts_alive_; }
  std::size_t element_slots() const { return elems_.size(); }
  std::size_t vertex_slots() const { return verts_.size(); }

  const Element& element(ElemIdx e) const {
    return elems_[static_cast<std::size_t>(e)];
  }
  void set_tag(ElemIdx e, std::int32_t tag) { slot(e).tag = tag; }
  std::int32_t tag(ElemIdx e) const { return element(e).tag; }
  const Point& vertex(VertIdx v) const {
    return verts_[static_cast<std::size_t>(v)];
  }
  bool vertex_alive(VertIdx v) const {
    return vert_alive_[static_cast<std::size_t>(v)];
  }
  bool is_leaf(ElemIdx e) const {
    return element(e).alive && element(e).leaf;
  }

  /// Leaves in ascending element-id order (deterministic).
  std::vector<ElemIdx> leaf_elements() const;

  /// Number of leaves below initial element `coarse` (its dual-graph vertex
  /// weight in PNR).
  std::int64_t leaf_count(ElemIdx coarse) const {
    return leaf_count_[static_cast<std::size_t>(coarse)];
  }

  /// Current adjacent-leaf-pair count across the {c1, c2} interface; 0 when
  /// the two initial elements are not adjacent.
  std::int64_t coarse_interface_weight(ElemIdx c1, ElemIdx c2) const;

  /// Monotone counter bumped by every refine/coarsen call that changed the
  /// mesh. Consumers of derived state (dual graphs, cached step metrics) use
  /// it to detect staleness.
  std::uint64_t adapt_version() const { return adapt_version_; }

  /// Hand over the set of initial elements whose refinement trees changed
  /// since the previous drain (see DualWeightDelta in mesh/dual.hpp) and
  /// reset it. Single-consumer: the delta's epoch pair chains consecutive
  /// drains so a second consumer can detect the gap and rebuild.
  DualWeightDelta drain_dual_delta();

  /// Signed area (2D) or volume (3D); positive for every leaf.
  double signed_measure(ElemIdx e) const;
  Point centroid(ElemIdx e) const;

  /// Visit every leaf interface — an edge in 2D, a face in 3D — once, in the
  /// mesh's own order: f(e1, e2), where e2 is kNoElem on the domain boundary.
  template <typename F>
  void for_each_leaf_interface(F&& f) const {
    for (const auto& [key, facet] : facets_) {
      (void)key;
      f(facet.elems[0], facet.elems[1]);
    }
  }

  /// Vertices lying on the domain boundary (corners of single-element
  /// facets). Recomputed on each call.
  std::vector<char> boundary_vertex_mask() const;

  /// Visit every adjacent pair of initial elements with the current number
  /// of adjacent leaf pairs across their interface — the edge weights of
  /// the PNR coarse graph, maintained incrementally by every bisection and
  /// coarsening (the paper's P1 phase): callback(c1, c2, weight), c1 < c2.
  template <typename F>
  void for_each_coarse_interface(F&& f) const {
    for (const auto& [key, w] : coarse_interface_) {
      if (w == 0) continue;
      f(static_cast<ElemIdx>(key & 0xffffffffull),
        static_cast<ElemIdx>(key >> 32), w);
    }
  }

  // ---- adaptation -----------------------------------------------------------

  /// Bisect each marked leaf once (plus whatever conformity propagation
  /// demands). Returns the number of bisections performed.
  std::int64_t refine(const std::vector<ElemIdx>& marked);

  /// Undo bisections whose child leaves are all marked and whose midpoint
  /// is used by no other leaf. Returns the number of parent elements
  /// restored.
  std::int64_t coarsen(const std::vector<ElemIdx>& marked);

  // ---- validation -----------------------------------------------------------

  /// Empty string when the mesh is a conforming simplicial mesh with a
  /// consistent refinement forest and incidence maps; otherwise a
  /// description of the first violation found.
  std::string check_invariants() const;

 private:
  /// A leaf facet (edge in 2D, face in 3D) and the one or two leaves
  /// containing it.
  struct Facet {
    std::array<VertIdx, D> v;
    std::array<ElemIdx, 2> elems{kNoElem, kNoElem};
  };

  Element& slot(ElemIdx e) { return elems_[static_cast<std::size_t>(e)]; }

  VertIdx new_vertex(const Point& p);
  ElemIdx new_element();
  void release_element(ElemIdx e);
  void release_vertex(VertIdx v);

  void maps_add(ElemIdx e);
  void maps_remove(ElemIdx e);

  /// Longest edge of leaf e as (a, b) with deterministic tie-breaking.
  std::pair<VertIdx, VertIdx> longest_edge(ElemIdx e) const;

  /// The leaves around edge {a,b} of leaf e, in bisection order.
  void edge_star(ElemIdx e, VertIdx a, VertIdx b,
                 std::vector<ElemIdx>& star) const;

  /// Split leaf `e` by edge {a,b} using midpoint vertex m.
  void bisect(ElemIdx e, VertIdx a, VertIdx b, VertIdx m);

  /// Record that `coarse`'s subtree changed shape: its dual vertex weight
  /// and any incident interface weight may move, nothing else can (the
  /// coarse topology is fixed).
  void mark_dual_dirty(ElemIdx coarse) {
    if (!dual_dirty_mark_[static_cast<std::size_t>(coarse)]) {
      dual_dirty_mark_[static_cast<std::size_t>(coarse)] = true;
      dual_dirty_.push_back(coarse);
    }
  }

  std::vector<Point> verts_;
  std::vector<char> vert_alive_;
  std::vector<Element> elems_;
  std::vector<ElemIdx> free_elems_;
  std::vector<VertIdx> free_verts_;
  std::vector<std::int64_t> leaf_count_;  ///< per initial element

  /// Leaf facet key -> the facet and its one or two leaves.
  std::unordered_map<std::uint64_t, Facet> facets_;
  /// (lo coarse id, hi coarse id) -> adjacent leaf pairs across the
  /// interface; kept in sync by maps_add/maps_remove.
  std::unordered_map<std::uint64_t, std::int64_t> coarse_interface_;
  /// 3D only: leaf edge -> the leaves containing it, the edge star that
  /// refinement bisects together (in 2D the facet pair is the star).
  std::unordered_map<std::uint64_t, std::vector<ElemIdx>> edge_elems_;

  /// Dirty set for DualWeightDelta: initial elements touched by bisect /
  /// coarsen since the last drain, plus the drain epoch counter.
  std::vector<char> dual_dirty_mark_;
  std::vector<ElemIdx> dual_dirty_;
  std::uint64_t dual_drains_ = 0;
  std::uint64_t adapt_version_ = 0;

  ElemIdx num_initial_ = 0;
  std::int64_t num_leaves_ = 0;
  std::int64_t num_verts_alive_ = 0;
  bool finalized_ = false;
};

extern template class SimplexMesh<2>;
extern template class SimplexMesh<3>;

using TriMesh = SimplexMesh<2>;
using TetMesh = SimplexMesh<3>;

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
