// Tests for the 3D adaptive tetrahedral mesh: Kuhn generation, longest-edge
// bisection with edge-star propagation, coarsening and dual extraction.

#include <gtest/gtest.h>

#include "dual_checks.hpp"
#include "mesh_checks.hpp"
#include "mesh/dual.hpp"
#include "mesh/generate.hpp"
#include "mesh/metrics.hpp"
#include "mesh/simplex_mesh.hpp"

namespace pnr::mesh {
namespace {

TetMesh unit_cube(int n = 3, double jitter = 0.0, std::uint64_t seed = 1) {
  return structured_tet_mesh(n, n, n, jitter, seed);
}

std::vector<ElemIdx> leaves_in_ball(const TetMesh& m, double cx, double cy,
                                    double cz, double r) {
  std::vector<ElemIdx> out;
  for (const ElemIdx e : m.leaf_elements()) {
    const Point3 c = m.centroid(e);
    const double d2 = (c.x - cx) * (c.x - cx) + (c.y - cy) * (c.y - cy) +
                      (c.z - cz) * (c.z - cz);
    if (d2 < r * r) out.push_back(e);
  }
  return out;
}

TEST(Generate3D, StructuredCounts) {
  const TetMesh m = unit_cube(2);
  EXPECT_EQ(m.num_initial_elements(), 6 * 8);
  EXPECT_EQ(m.num_vertices_alive(), 27);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Generate3D, VolumeIsDomainVolume) {
  const TetMesh m = unit_cube(3, 0.15, 5);
  double vol = 0.0;
  for (const ElemIdx e : m.leaf_elements()) vol += m.signed_measure(e);
  EXPECT_NEAR(vol, 8.0, 1e-9);
}

TEST(Generate3D, JitteredStaysPositive) {
  const TetMesh m = unit_cube(4, 0.2, 17);
  for (const ElemIdx e : m.leaf_elements())
    EXPECT_GT(m.signed_measure(e), 0.0);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Refine3D, SingleMarkStaysConforming) {
  TetMesh m = unit_cube(2);
  const auto bisections = m.refine({0});
  EXPECT_GE(bisections, 1);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Refine3D, VolumeConserved) {
  TetMesh m = unit_cube(2, 0.1, 3);
  m.refine(m.leaf_elements());
  m.refine(leaves_in_ball(m, 0.5, 0.5, 0.5, 0.6));
  double vol = 0.0;
  for (const ElemIdx e : m.leaf_elements()) vol += m.signed_measure(e);
  EXPECT_NEAR(vol, 8.0, 1e-9);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Refine3D, UniformRoundAtLeastDoubles) {
  TetMesh m = unit_cube(2);
  const auto n0 = m.num_leaves();
  m.refine(m.leaf_elements());
  EXPECT_GE(m.num_leaves(), 2 * n0);
  EXPECT_TRUE(m.check_invariants().empty());
}

TEST(Refine3D, DeepLocalRefinementTerminates) {
  TetMesh m = unit_cube(3, 0.1, 7);
  for (int round = 0; round < 5; ++round) {
    const auto marked = leaves_in_ball(m, 0.9, 0.9, 0.9, 0.5);
    ASSERT_FALSE(marked.empty());
    m.refine(marked);
    ASSERT_TRUE(m.check_invariants().empty()) << m.check_invariants();
  }
  EXPECT_GT(m.num_leaves(), 400);
}

TEST(Refine3D, LeafCountsTrackAncestors) {
  TetMesh m = unit_cube(2);
  m.refine({0, 7, 13});
  std::int64_t total = 0;
  for (ElemIdx c = 0; c < m.num_initial_elements(); ++c)
    total += m.leaf_count(c);
  EXPECT_EQ(total, m.num_leaves());
}

TEST(Refine3D, MarkedElementIsNoLongerLeaf) {
  check_marked_element_is_no_longer_leaf(unit_cube(2), 5);
}

TEST(Refine3D, LevelsIncreaseMonotonically) {
  check_levels_increase_monotonically(unit_cube(2), /*max_level=*/4);
}

TEST(Coarsen3D, RefusesWhenMidpointStillUsed) {
  check_refuses_when_midpoint_still_used(unit_cube(2));
}

TEST(Coarsen3D, SlotsAreRecycled) {
  check_slots_are_recycled(unit_cube(2));
}

// The 3D twin of MeshPin.AdaptationSequence2D (test_tri_mesh.cpp).
TEST(MeshPin, AdaptationSequence3D) {
  EXPECT_EQ(adaptation_digest(unit_cube(3, 0.2, 3), {-0.6, 0.5, -0.3},
                              {0.25, -0.2, 0.1}, 0.6, 6),
            8184508100519653310ull);
}

TEST(Coarsen3D, RoundTripToInitial) {
  TetMesh m = unit_cube(2);
  const auto initial_leaves = m.num_leaves();
  const auto initial_verts = m.num_vertices_alive();
  for (int round = 0; round < 2; ++round)
    m.refine(leaves_in_ball(m, 0.0, 0.0, 0.0, 1.2));
  while (m.coarsen(m.leaf_elements()) > 0) {
    ASSERT_TRUE(m.check_invariants().empty()) << m.check_invariants();
  }
  EXPECT_EQ(m.num_leaves(), initial_leaves);
  EXPECT_EQ(m.num_vertices_alive(), initial_verts);
}

TEST(Coarsen3D, PartialMarkDoesNotBreakMesh) {
  TetMesh m = unit_cube(2);
  m.refine(m.leaf_elements());
  // Mark only half the leaves.
  auto leaves = m.leaf_elements();
  leaves.resize(leaves.size() / 2);
  m.coarsen(leaves);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Dual3D, FineDualMatchesLeafCount) {
  check_fine_dual_matches_leaf_count(unit_cube(2));
}

TEST(Dual3D, NestedEdgeWeightsCountAdjacentLeafPairs) {
  check_nested_edge_weights_count_adjacent_leaf_pairs(
      unit_cube(2));  // 48 initial tetrahedra
}

TEST(Dual3D, IncrementalInterfaceWeightsMatchBruteForce) {
  check_incremental_interface_weights_match_brute_force(
      unit_cube(3, 0.15, 23),
      [](const TetMesh& m) { return leaves_in_ball(m, 0.4, -0.2, 0.3, 0.7); },
      [](const TetMesh& m) { return leaves_in_ball(m, 0.2, -0.1, 0.3, 0.4); });
}

TEST(Dual3D, ProjectionAssignsAncestorSubset) {
  check_projection_assigns_ancestor_subset(unit_cube(2));
}

TEST(Dual3D, FineDualDegreesAtMostFour) {
  TetMesh m = unit_cube(2);
  m.refine(m.leaf_elements());
  const auto dual = fine_dual_graph(m);
  EXPECT_TRUE(dual.graph.validate().empty());
  for (graph::VertexId v = 0; v < dual.graph.num_vertices(); ++v)
    EXPECT_LE(dual.graph.degree(v), 4);
}

TEST(Dual3D, NestedWeightsSumToLeaves) {
  TetMesh m = unit_cube(2);
  for (int round = 0; round < 3; ++round)
    m.refine(leaves_in_ball(m, 0.8, 0.8, 0.8, 0.5));
  const auto g = nested_dual_graph(m);
  EXPECT_EQ(g.num_vertices(), m.num_initial_elements());
  EXPECT_EQ(g.total_vertex_weight(), m.num_leaves());
  EXPECT_TRUE(g.validate().empty()) << g.validate();
}

TEST(Metrics3D, SharedVerticesHalfSplit) {
  TetMesh m = unit_cube(2);
  const auto leaves = m.leaf_elements();
  std::vector<part::PartId> assign(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i)
    assign[i] = m.centroid(leaves[i]).x < 0.0 ? 0 : 1;
  // The x = 0 plane of a 3×3×3 vertex grid holds 9 vertices.
  EXPECT_EQ(shared_vertices(m, leaves, assign), 9);
}

TEST(Boundary3D, CubeSurfaceVertices) {
  const TetMesh m = unit_cube(2);
  const auto mask = m.boundary_vertex_mask();
  int boundary = 0;
  for (std::size_t v = 0; v < m.vertex_slots(); ++v)
    boundary += mask[v] ? 1 : 0;
  EXPECT_EQ(boundary, 26);  // 27 vertices, one interior
}

}  // namespace
}  // namespace pnr::mesh
