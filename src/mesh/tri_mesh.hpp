#pragma once
// Two-dimensional unstructured triangle mesh with local adaptation à la
// PARED (Section 2 of the paper):
//  * refinement is Rivara's longest-edge bisection with recursive conformity
//    propagation — refining a triangle whose longest edge is interior always
//    bisects the cross-edge partner too, so the mesh stays conforming;
//  * refined elements are never destroyed: each initial element roots a
//    refinement-history tree whose leaves are the current (most refined)
//    mesh; coarsening replaces a sibling pair by its parent;
//  * every element knows its level-0 ancestor, so the PNR coarse dual graph
//    weights (leaves per initial element) are maintained in O(1) per
//    bisection.

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mesh/types.hpp"
#include "util/rng.hpp"

namespace pnr::mesh {

struct DualWeightDelta;  // mesh/dual.hpp

class TriMesh {
 public:
  static constexpr int kDim = 2;
  static constexpr int kVertsPerElem = 3;

  struct Tri {
    std::array<VertIdx, 3> v{kNoVert, kNoVert, kNoVert};
    ElemIdx parent = kNoElem;
    std::array<ElemIdx, 2> child{kNoElem, kNoElem};
    VertIdx mid = kNoVert;   ///< bisection midpoint (set when refined)
    ElemIdx coarse = kNoElem;  ///< level-0 ancestor
    /// User payload that follows adaptation: children inherit it on
    /// bisection, a restored parent takes it back from its first child on
    /// coarsening. PARED uses it to carry the owning processor.
    std::int32_t tag = -1;
    std::int16_t level = 0;
    bool leaf = false;   ///< current finest-mesh member
    bool alive = false;  ///< false for recycled slots
  };
  using Point = Point2;
  using Element = Tri;

  // ---- construction -------------------------------------------------------

  /// Add a vertex / initial triangle while building the 0-level mesh.
  VertIdx add_vertex(double x, double y);
  ElemIdx add_triangle(VertIdx a, VertIdx b, VertIdx c);

  /// Freeze the 0-level mesh: orient all triangles CCW, build the leaf-edge
  /// incidence map, assign coarse ancestors. Must be called exactly once
  /// before any refinement.
  void finalize();

  // ---- queries -------------------------------------------------------------

  ElemIdx num_initial_elements() const { return num_initial_; }
  std::int64_t num_leaves() const { return num_leaves_; }
  std::int64_t num_vertices_alive() const { return num_verts_alive_; }
  std::size_t element_slots() const { return tris_.size(); }
  std::size_t vertex_slots() const { return verts_.size(); }

  const Tri& element(ElemIdx e) const {
    return tris_[static_cast<std::size_t>(e)];
  }
  void set_tag(ElemIdx e, std::int32_t tag) {
    tris_[static_cast<std::size_t>(e)].tag = tag;
  }
  std::int32_t tag(ElemIdx e) const {
    return tris_[static_cast<std::size_t>(e)].tag;
  }
  const Point2& vertex(VertIdx v) const {
    return verts_[static_cast<std::size_t>(v)];
  }
  bool vertex_alive(VertIdx v) const {
    return vert_alive_[static_cast<std::size_t>(v)];
  }
  bool is_leaf(ElemIdx e) const {
    return tris_[static_cast<std::size_t>(e)].alive &&
           tris_[static_cast<std::size_t>(e)].leaf;
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

  double signed_area(ElemIdx e) const;
  Point2 centroid(ElemIdx e) const;

  /// The leaf on the other side of leaf edge {a,b} from `e` (kNoElem at the
  /// domain boundary).
  ElemIdx edge_partner(ElemIdx e, VertIdx a, VertIdx b) const;

  /// Visit every leaf edge once: callback(a, b, elem1, elem2) where elem2 is
  /// kNoElem for boundary edges.
  template <typename F>
  void for_each_leaf_edge(F&& f) const {
    for (const auto& [key, pair] : edge_map_) {
      const auto a = static_cast<VertIdx>(key & 0xffffffffull);
      const auto b = static_cast<VertIdx>(key >> 32);
      f(a, b, pair[0], pair[1]);
    }
  }

  /// Vertices lying on the domain boundary (endpoints of single-element
  /// edges). Recomputed on each call.
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

  /// Undo bisections whose four (two at the boundary) child leaves are all
  /// marked and whose midpoint is used by no other leaf. Returns the number
  /// of parent elements restored.
  std::int64_t coarsen(const std::vector<ElemIdx>& marked);

  // ---- validation -----------------------------------------------------------

  /// Empty string when the mesh is a conforming triangulation with a
  /// consistent refinement forest and edge map; otherwise a description of
  /// the first violation found.
  std::string check_invariants() const;

 private:
  VertIdx new_vertex(double x, double y);
  ElemIdx new_element();
  void release_element(ElemIdx e);
  void release_vertex(VertIdx v);

  void edge_map_add(ElemIdx e);
  void edge_map_remove(ElemIdx e);

  /// Longest edge of leaf e as (a, b) with deterministic tie-breaking.
  std::pair<VertIdx, VertIdx> longest_edge(ElemIdx e) const;

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

  std::vector<Point2> verts_;
  std::vector<char> vert_alive_;
  std::vector<Tri> tris_;
  std::vector<ElemIdx> free_elems_;
  std::vector<VertIdx> free_verts_;
  std::vector<std::int64_t> leaf_count_;  ///< per initial element

  /// Leaf edge {a,b} -> the one or two leaves containing it.
  std::unordered_map<std::uint64_t, std::array<ElemIdx, 2>> edge_map_;
  /// (lo coarse id, hi coarse id) -> adjacent leaf pairs across the
  /// interface; kept in sync by edge_map_add/edge_map_remove.
  std::unordered_map<std::uint64_t, std::int64_t> coarse_interface_;

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

}  // namespace pnr::mesh
