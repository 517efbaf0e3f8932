#pragma once
// Three-dimensional unstructured tetrahedral mesh with Rivara-style
// longest-edge bisection (paper reference [11]): a tetrahedron is bisected
// by inserting a triangle between the midpoint of its longest edge and the
// two vertices not on that edge. Conformity requires every leaf tet sharing
// the split edge to be bisected by it, which the refiner enforces by
// recursively refining any incident tet whose own longest edge differs.
// The refinement-history forest and coarse-ancestor bookkeeping mirror the
// 2D mesh.

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mesh/types.hpp"

namespace pnr::mesh {

struct DualWeightDelta;  // mesh/dual.hpp

class TetMesh {
 public:
  static constexpr int kDim = 3;
  static constexpr int kVertsPerElem = 4;

  struct Tet {
    std::array<VertIdx, 4> v{kNoVert, kNoVert, kNoVert, kNoVert};
    ElemIdx parent = kNoElem;
    std::array<ElemIdx, 2> child{kNoElem, kNoElem};
    VertIdx mid = kNoVert;
    ElemIdx coarse = kNoElem;
    /// Inherited user payload (see TriMesh::Tri::tag).
    std::int32_t tag = -1;
    std::int16_t level = 0;
    bool leaf = false;
    bool alive = false;
  };
  using Point = Point3;
  using Element = Tet;

  // ---- construction -------------------------------------------------------

  VertIdx add_vertex(double x, double y, double z);
  ElemIdx add_tet(VertIdx a, VertIdx b, VertIdx c, VertIdx d);
  void finalize();

  // ---- queries --------------------------------------------------------------

  ElemIdx num_initial_elements() const { return num_initial_; }
  std::int64_t num_leaves() const { return num_leaves_; }
  std::int64_t num_vertices_alive() const { return num_verts_alive_; }
  std::size_t element_slots() const { return tets_.size(); }
  std::size_t vertex_slots() const { return verts_.size(); }

  const Tet& element(ElemIdx e) const {
    return tets_[static_cast<std::size_t>(e)];
  }
  void set_tag(ElemIdx e, std::int32_t tag) {
    tets_[static_cast<std::size_t>(e)].tag = tag;
  }
  std::int32_t tag(ElemIdx e) const {
    return tets_[static_cast<std::size_t>(e)].tag;
  }
  const Point3& vertex(VertIdx v) const {
    return verts_[static_cast<std::size_t>(v)];
  }
  bool vertex_alive(VertIdx v) const {
    return vert_alive_[static_cast<std::size_t>(v)];
  }
  bool is_leaf(ElemIdx e) const {
    return tets_[static_cast<std::size_t>(e)].alive &&
           tets_[static_cast<std::size_t>(e)].leaf;
  }

  std::vector<ElemIdx> leaf_elements() const;
  std::int64_t leaf_count(ElemIdx coarse) const {
    return leaf_count_[static_cast<std::size_t>(coarse)];
  }

  /// Current adjacent-leaf-pair count across the {c1, c2} interface; 0 when
  /// the two initial elements are not adjacent.
  std::int64_t coarse_interface_weight(ElemIdx c1, ElemIdx c2) const;

  /// Monotone counter bumped by every refine/coarsen call that changed the
  /// mesh (see TriMesh::adapt_version).
  std::uint64_t adapt_version() const { return adapt_version_; }

  /// Hand over the set of initial elements whose refinement trees changed
  /// since the previous drain (see DualWeightDelta in mesh/dual.hpp) and
  /// reset it.
  DualWeightDelta drain_dual_delta();

  double signed_volume(ElemIdx e) const;
  Point3 centroid(ElemIdx e) const;

  /// Visit every leaf face once: callback(a, b, c, elem1, elem2) with elem2
  /// kNoElem on the domain boundary.
  template <typename F>
  void for_each_leaf_face(F&& f) const {
    for (const auto& [key, entry] : face_map_) {
      (void)key;
      f(entry.a, entry.b, entry.c, entry.elems[0], entry.elems[1]);
    }
  }

  std::vector<char> boundary_vertex_mask() const;

  /// Visit every adjacent pair of initial elements with the current number
  /// of adjacent leaf pairs across their interface (incrementally
  /// maintained — the paper's P1 bookkeeping): callback(c1, c2, w), c1 < c2.
  template <typename F>
  void for_each_coarse_interface(F&& f) const {
    for (const auto& [key, w] : coarse_interface_) {
      if (w == 0) continue;
      f(static_cast<ElemIdx>(key & 0xffffffffull),
        static_cast<ElemIdx>(key >> 32), w);
    }
  }

  // ---- adaptation -----------------------------------------------------------

  std::int64_t refine(const std::vector<ElemIdx>& marked);
  std::int64_t coarsen(const std::vector<ElemIdx>& marked);

  // ---- validation -----------------------------------------------------------

  std::string check_invariants() const;

 private:
  struct FaceEntry {
    VertIdx a, b, c;
    std::array<ElemIdx, 2> elems{kNoElem, kNoElem};
  };

  VertIdx new_vertex(double x, double y, double z);
  ElemIdx new_element();
  void release_element(ElemIdx e);
  void release_vertex(VertIdx v);

  void maps_add(ElemIdx e);
  void maps_remove(ElemIdx e);

  /// Longest edge with deterministic tie-break shared by all incident tets.
  std::pair<VertIdx, VertIdx> longest_edge(ElemIdx e) const;

  void bisect(ElemIdx e, VertIdx a, VertIdx b, VertIdx m);

  /// See TriMesh::mark_dual_dirty.
  void mark_dual_dirty(ElemIdx coarse) {
    if (!dual_dirty_mark_[static_cast<std::size_t>(coarse)]) {
      dual_dirty_mark_[static_cast<std::size_t>(coarse)] = true;
      dual_dirty_.push_back(coarse);
    }
  }

  std::vector<Point3> verts_;
  std::vector<char> vert_alive_;
  std::vector<Tet> tets_;
  std::vector<ElemIdx> free_elems_;
  std::vector<VertIdx> free_verts_;
  std::vector<std::int64_t> leaf_count_;

  std::unordered_map<std::uint64_t, FaceEntry> face_map_;
  /// (lo coarse id, hi coarse id) -> adjacent leaf pairs across the
  /// interface; kept in sync by maps_add/maps_remove.
  std::unordered_map<std::uint64_t, std::int64_t> coarse_interface_;
  /// Leaf tets incident to each leaf edge (needed to gather the bisection
  /// "edge star" during refinement).
  std::unordered_map<std::uint64_t, std::vector<ElemIdx>> edge_tets_;

  /// Dirty set for DualWeightDelta (see TriMesh).
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
