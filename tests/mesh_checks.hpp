#pragma once
// Dimension-generic bodies of the refine/coarsen tests. test_tri_mesh.cpp
// runs each on a TriMesh (TEST(Refine, ...), TEST(Coarsen, ...)) and
// test_tet_mesh.cpp on a TetMesh (TEST(Refine3D, ...), TEST(Coarsen3D,
// ...)), so both dimensions of the adaptation code meet the same
// assertions. adaptation_digest is the bisection-order pin of
// TEST(MeshPin, ...); slot_digest also pins the workloads (WorkloadPin in
// test_pared.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "mesh/dual.hpp"
#include "util/fnv.hpp"

namespace pnr::mesh {

/// A marked leaf is bisected: it stops being a leaf and gains children.
template <typename Mesh>
void check_marked_element_is_no_longer_leaf(Mesh m, ElemIdx e) {
  m.refine({e});
  EXPECT_FALSE(m.is_leaf(e));
  EXPECT_EQ(m.element(e).child[0] != kNoElem, true);
}

/// Two uniform refinement rounds put every leaf at level 1 or deeper and
/// no deeper than `max_level` (the propagation bound).
template <typename Mesh>
void check_levels_increase_monotonically(Mesh m, int max_level) {
  m.refine(m.leaf_elements());
  m.refine(m.leaf_elements());
  for (const ElemIdx e : m.leaf_elements()) {
    const auto& t = m.element(e);
    EXPECT_GE(t.level, 1);
    EXPECT_LE(t.level, max_level);
  }
}

/// Marking one child of a bisected element leaves its sibling unmarked, so
/// the midpoint stays in use and nothing may coarsen.
template <typename Mesh>
void check_refuses_when_midpoint_still_used(Mesh m) {
  m.refine({0});
  const ElemIdx child = m.element(0).child[0];
  EXPECT_EQ(m.coarsen({child}), 0);
}

/// Coarsening back to the initial mesh frees the child slots, and refining
/// the same way again reuses them instead of growing the element array.
template <typename Mesh>
void check_slots_are_recycled(Mesh m) {
  m.refine(m.leaf_elements());
  const auto slots_after_refine = m.element_slots();
  while (m.coarsen(m.leaf_elements()) > 0) {
  }
  m.refine(m.leaf_elements());
  EXPECT_EQ(m.element_slots(), slots_after_refine);
}

/// Squared distance from leaf e's centroid to `at`.
template <typename Mesh>
double centroid_dist2(const Mesh& m, ElemIdx e,
                      const std::array<double, Mesh::kDim>& at) {
  const auto c = coords(m.centroid(e));
  double d2 = 0.0;
  for (int d = 0; d < Mesh::kDim; ++d) {
    const double dx = c[static_cast<std::size_t>(d)] -
                      at[static_cast<std::size_t>(d)];
    d2 += dx * dx;
  }
  return d2;
}

/// Mix every element slot (alive, leaf, corners, parent, children,
/// midpoint, root, level, tag) and vertex slot (alive, coordinate bits) of
/// `m` into the running FNV-1a digest `h`.
template <typename Mesh>
std::uint64_t slot_digest(const Mesh& m, std::uint64_t h) {
  const auto mix = [&h](auto v) { h = util::fnv1a_value(v, h); };
  mix(static_cast<std::uint64_t>(m.element_slots()));
  for (std::size_t e = 0; e < m.element_slots(); ++e) {
    const auto& t = m.element(static_cast<ElemIdx>(e));
    mix(t.alive);
    mix(t.leaf);
    for (const VertIdx v : t.v) mix(v);
    mix(t.parent);
    mix(t.child[0]);
    mix(t.child[1]);
    mix(t.mid);
    mix(t.coarse);
    mix(t.level);
    mix(t.tag);
  }
  mix(static_cast<std::uint64_t>(m.vertex_slots()));
  for (std::size_t v = 0; v < m.vertex_slots(); ++v) {
    const bool alive = m.vertex_alive(static_cast<VertIdx>(v));
    mix(alive);
    if (!alive) continue;
    for (const double x : coords(m.vertex(static_cast<VertIdx>(v))))
      mix(std::bit_cast<std::uint64_t>(x));
  }
  return h;
}

/// Run a fixed adaptation script and digest everything it leaves behind.
/// Each round refines the leaves whose centroid lies within `radius` of a
/// point moving from `start` by `step`, tags every leaf by its centroid's
/// sign pattern, then coarsens the leaves outside the ball. The FNV-1a
/// digest covers each round's refine/coarsen counts, the drained
/// DualWeightDelta, the sorted coarse-interface triples, the leaf count of
/// every root, and slot_digest. Any change in bisection order, slot
/// recycling or tie-breaking changes the digest.
template <typename Mesh>
std::uint64_t adaptation_digest(Mesh m, std::array<double, Mesh::kDim> at,
                                const std::array<double, Mesh::kDim>& step,
                                double radius, int rounds) {
  std::uint64_t h = util::kFnvSeed;
  const auto mix = [&h](auto v) { h = util::fnv1a_value(v, h); };
  const double r2 = radius * radius;
  for (int round = 0; round < rounds; ++round) {
    std::vector<ElemIdx> inside;
    for (const ElemIdx e : m.leaf_elements())
      if (centroid_dist2(m, e, at) < r2) inside.push_back(e);
    mix(m.refine(inside));

    for (const ElemIdx e : m.leaf_elements()) {
      const auto c = coords(m.centroid(e));
      std::int32_t tag = 0;
      for (int d = 0; d < Mesh::kDim; ++d)
        if (c[static_cast<std::size_t>(d)] >= 0.0) tag |= 1 << d;
      m.set_tag(e, tag);
    }

    std::vector<ElemIdx> outside;
    for (const ElemIdx e : m.leaf_elements())
      if (!(centroid_dist2(m, e, at) < r2)) outside.push_back(e);
    mix(m.coarsen(outside));

    const DualWeightDelta delta = m.drain_dual_delta();
    mix(delta.prev_epoch);
    mix(delta.epoch);
    mix(static_cast<std::uint64_t>(delta.vertices.size()));
    for (const ElemIdx c : delta.vertices) mix(c);

    std::vector<std::tuple<ElemIdx, ElemIdx, std::int64_t>> interfaces;
    m.for_each_coarse_interface([&](ElemIdx c1, ElemIdx c2, std::int64_t w) {
      interfaces.emplace_back(c1, c2, w);
    });
    std::sort(interfaces.begin(), interfaces.end());
    mix(static_cast<std::uint64_t>(interfaces.size()));
    for (const auto& [c1, c2, w] : interfaces) {
      mix(c1);
      mix(c2);
      mix(w);
    }
    for (ElemIdx c = 0; c < m.num_initial_elements(); ++c)
      mix(m.leaf_count(c));

    h = slot_digest(m, h);

    for (int d = 0; d < Mesh::kDim; ++d)
      at[static_cast<std::size_t>(d)] += step[static_cast<std::size_t>(d)];
  }
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
  return h;
}

}  // namespace pnr::mesh
