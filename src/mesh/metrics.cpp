#include "mesh/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/assert.hpp"

namespace pnr::mesh {

namespace {

/// Counts each vertex once, when a second subset touches it.
class SharedCounter {
 public:
  explicit SharedCounter(std::size_t vertex_slots)
      : first_part_(vertex_slots, -2), shared_(vertex_slots, false) {}

  void touch(VertIdx v, part::PartId part) {
    const auto sv = static_cast<std::size_t>(v);
    if (first_part_[sv] == -2) {
      first_part_[sv] = part;
    } else if (first_part_[sv] != part && !shared_[sv]) {
      shared_[sv] = true;
      ++count_;
    }
  }
  bool shared(VertIdx v) const {
    return shared_[static_cast<std::size_t>(v)];
  }
  std::int64_t count() const { return count_; }

 private:
  std::vector<part::PartId> first_part_;  ///< -2 while untouched
  std::vector<char> shared_;
  std::int64_t count_ = 0;
};

}  // namespace

template <typename Mesh>
std::int64_t shared_vertices(const Mesh& mesh,
                             const std::vector<ElemIdx>& elems,
                             std::span<const part::PartId> assign) {
  PNR_REQUIRE(assign.size() == elems.size());
  SharedCounter counter(mesh.vertex_slots());
  for (std::size_t i = 0; i < elems.size(); ++i)
    for (const VertIdx v : mesh.element(elems[i]).v) counter.touch(v, assign[i]);
  return counter.count();
}

template <typename Mesh>
std::int64_t whole_tree_shared_vertices(
    const Mesh& mesh, std::span<const part::PartId> coarse_assign) {
  const ElemIdx n0 = mesh.num_initial_elements();
  PNR_REQUIRE(coarse_assign.size() == static_cast<std::size_t>(n0));
  // Every corner of a root is a vertex of one of its leaves, so the root
  // pass sees exactly the subsets that touch each M^0 vertex, and the leaf
  // walk below only adds inner vertices.
  SharedCounter counter(mesh.vertex_slots());
  for (ElemIdx r = 0; r < n0; ++r)
    for (const VertIdx v : mesh.element(r).v)
      counter.touch(v, coarse_assign[static_cast<std::size_t>(r)]);
  std::vector<ElemIdx> stack;
  for (ElemIdx r = 0; r < n0; ++r) {
    const auto& corners = mesh.element(r).v;
    if (std::none_of(corners.begin(), corners.end(),
                     [&](VertIdx v) { return counter.shared(v); }))
      continue;
    const part::PartId part = coarse_assign[static_cast<std::size_t>(r)];
    stack.assign(1, r);
    while (!stack.empty()) {
      const auto& t = mesh.element(stack.back());
      stack.pop_back();
      if (!t.leaf) {
        stack.push_back(t.child[0]);
        stack.push_back(t.child[1]);
        continue;
      }
      for (const VertIdx v : t.v) counter.touch(v, part);
    }
  }
  return counter.count();
}

template std::int64_t shared_vertices(const TriMesh&,
                                      const std::vector<ElemIdx>&,
                                      std::span<const part::PartId>);
template std::int64_t shared_vertices(const TetMesh&,
                                      const std::vector<ElemIdx>&,
                                      std::span<const part::PartId>);
template std::int64_t whole_tree_shared_vertices(
    const TriMesh&, std::span<const part::PartId>);
template std::int64_t whole_tree_shared_vertices(
    const TetMesh&, std::span<const part::PartId>);

std::vector<std::int32_t> adjacent_subdomains(
    const graph::Graph& fine_dual, std::span<const part::PartId> assign,
    part::PartId num_parts) {
  PNR_REQUIRE(assign.size() ==
              static_cast<std::size_t>(fine_dual.num_vertices()));
  const auto p = static_cast<std::size_t>(num_parts);
  std::vector<char> adj(p * p, false);
  for (graph::VertexId v = 0; v < fine_dual.num_vertices(); ++v) {
    const auto pv = static_cast<std::size_t>(assign[static_cast<std::size_t>(v)]);
    for (graph::VertexId u : fine_dual.neighbors(v)) {
      const auto pu = static_cast<std::size_t>(assign[static_cast<std::size_t>(u)]);
      if (pu != pv) adj[pv * p + pu] = true;
    }
  }
  std::vector<std::int32_t> counts(p, 0);
  for (std::size_t i = 0; i < p; ++i)
    for (std::size_t j = 0; j < p; ++j)
      if (adj[i * p + j]) ++counts[i];
  return counts;
}

template <typename Mesh>
MeshQuality mesh_quality(const Mesh& mesh) {
  MeshQuality q;
  if constexpr (Mesh::kDim == 2) q.min_angle_deg = 180.0;
  bool first = true;
  for (const ElemIdx e : mesh.leaf_elements()) {
    const double measure = mesh.signed_measure(e);
    if (first) {
      q.min_volume = q.max_volume = measure;
      first = false;
    } else {
      q.min_volume = std::min(q.min_volume, measure);
      q.max_volume = std::max(q.max_volume, measure);
    }
    if constexpr (Mesh::kDim == 2) {
      const auto& t = mesh.element(e);
      for (int i = 0; i < 3; ++i) {
        const Point2& a = mesh.vertex(t.v[static_cast<std::size_t>(i)]);
        const Point2& b =
            mesh.vertex(t.v[static_cast<std::size_t>((i + 1) % 3)]);
        const Point2& c =
            mesh.vertex(t.v[static_cast<std::size_t>((i + 2) % 3)]);
        const double ux = b.x - a.x, uy = b.y - a.y;
        const double vx = c.x - a.x, vy = c.y - a.y;
        const double dot = ux * vx + uy * vy;
        const double cross = ux * vy - uy * vx;
        const double angle =
            std::atan2(std::abs(cross), dot) * 180.0 / std::numbers::pi;
        q.min_angle_deg = std::min(q.min_angle_deg, angle);
        q.max_angle_deg = std::max(q.max_angle_deg, angle);
      }
    }
  }
  return q;
}

template MeshQuality mesh_quality(const TriMesh&);
template MeshQuality mesh_quality(const TetMesh&);

}  // namespace pnr::mesh
