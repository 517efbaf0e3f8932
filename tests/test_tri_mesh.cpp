// Tests for the 2D adaptive triangle mesh: generation, Rivara refinement
// (conformity, forest invariants, leaf accounting), coarsening round-trips
// and dual-graph extraction.

#include <gtest/gtest.h>

#include <cmath>

#include "dual_checks.hpp"
#include "mesh_checks.hpp"
#include "mesh/dual.hpp"
#include "mesh/generate.hpp"
#include "mesh/metrics.hpp"
#include "mesh/simplex_mesh.hpp"

namespace pnr::mesh {
namespace {

TriMesh unit_square(int n = 4, double jitter = 0.0, std::uint64_t seed = 1) {
  return structured_tri_mesh(n, n, jitter, seed);
}

std::vector<ElemIdx> leaves_in_disc(const TriMesh& m, double cx, double cy,
                                    double r) {
  std::vector<ElemIdx> out;
  for (const ElemIdx e : m.leaf_elements()) {
    const Point2 c = m.centroid(e);
    if ((c.x - cx) * (c.x - cx) + (c.y - cy) * (c.y - cy) < r * r)
      out.push_back(e);
  }
  return out;
}

TEST(Generate, StructuredCountsMatch) {
  const TriMesh m = unit_square(4);
  EXPECT_EQ(m.num_initial_elements(), 32);
  EXPECT_EQ(m.num_leaves(), 32);
  EXPECT_EQ(m.num_vertices_alive(), 25);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Generate, PaperMeshSize) {
  const TriMesh m = paper_initial_tri_mesh();
  EXPECT_EQ(m.num_initial_elements(), 2 * 79 * 79);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Generate, JitterKeepsPositiveAreas) {
  const TriMesh m = unit_square(8, 0.3, 42);
  for (const ElemIdx e : m.leaf_elements())
    EXPECT_GT(m.signed_measure(e), 0.0);
}

TEST(Generate, TotalAreaIsDomainArea) {
  const TriMesh m = unit_square(6, 0.25, 3);
  double area = 0.0;
  for (const ElemIdx e : m.leaf_elements()) area += m.signed_measure(e);
  EXPECT_NEAR(area, 4.0, 1e-9);
}

TEST(Refine, SingleMarkBisectsAndStaysConforming) {
  TriMesh m = unit_square(4);
  const auto before = m.num_leaves();
  const auto bisections = m.refine({0});
  EXPECT_GE(bisections, 1);
  EXPECT_EQ(m.num_leaves(), before + bisections);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Refine, MarkedElementIsNoLongerLeaf) {
  check_marked_element_is_no_longer_leaf(unit_square(4), 5);
}

TEST(Refine, AreaConservedThroughRefinement) {
  TriMesh m = unit_square(4, 0.2, 7);
  m.refine(m.leaf_elements());
  m.refine(leaves_in_disc(m, 0.5, 0.5, 0.5));
  double area = 0.0;
  for (const ElemIdx e : m.leaf_elements()) area += m.signed_measure(e);
  EXPECT_NEAR(area, 4.0, 1e-9);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
}

TEST(Refine, UniformRefinementDoublesLeaves) {
  TriMesh m = unit_square(4);
  const auto n0 = m.num_leaves();
  m.refine(m.leaf_elements());
  // Every leaf bisected at least once; propagation may add more.
  EXPECT_GE(m.num_leaves(), 2 * n0);
  EXPECT_TRUE(m.check_invariants().empty());
}

TEST(Refine, DeepLocalRefinementTerminatesAndConforms) {
  TriMesh m = unit_square(8, 0.25, 11);
  for (int round = 0; round < 8; ++round) {
    const auto marked = leaves_in_disc(m, 0.9, 0.9, 0.3);
    ASSERT_FALSE(marked.empty());
    m.refine(marked);
    ASSERT_TRUE(m.check_invariants().empty()) << m.check_invariants();
  }
  EXPECT_GT(m.num_leaves(), 500);
}

TEST(Refine, LeafCountsTrackCoarseAncestors) {
  TriMesh m = unit_square(4);
  m.refine({3});
  std::int64_t total = 0;
  for (ElemIdx c = 0; c < m.num_initial_elements(); ++c)
    total += m.leaf_count(c);
  EXPECT_EQ(total, m.num_leaves());
  EXPECT_GE(m.leaf_count(3), 2);
}

TEST(Refine, LevelsIncreaseMonotonically) {
  check_levels_increase_monotonically(unit_square(4), /*max_level=*/4);
}

TEST(Coarsen, UndoesSimpleRefinement) {
  TriMesh m = unit_square(4);
  const auto initial_leaves = m.num_leaves();
  const auto initial_verts = m.num_vertices_alive();
  m.refine({0});
  const auto merges = m.coarsen(m.leaf_elements());
  EXPECT_GT(merges, 0);
  EXPECT_TRUE(m.check_invariants().empty()) << m.check_invariants();
  // Coarsening everything marked must return to the initial mesh (possibly
  // needing several passes for deep trees — one suffices for one round).
  EXPECT_EQ(m.num_leaves(), initial_leaves);
  EXPECT_EQ(m.num_vertices_alive(), initial_verts);
}

TEST(Coarsen, MultiPassReturnsToInitialMesh) {
  TriMesh m = unit_square(4, 0.2, 5);
  const auto initial_leaves = m.num_leaves();
  for (int round = 0; round < 3; ++round)
    m.refine(leaves_in_disc(m, 0.0, 0.0, 0.8));
  while (m.coarsen(m.leaf_elements()) > 0) {
    ASSERT_TRUE(m.check_invariants().empty()) << m.check_invariants();
  }
  EXPECT_EQ(m.num_leaves(), initial_leaves);
  for (ElemIdx c = 0; c < m.num_initial_elements(); ++c)
    EXPECT_EQ(m.leaf_count(c), 1);
}

TEST(Coarsen, RefusesWhenMidpointStillUsed) {
  check_refuses_when_midpoint_still_used(unit_square(4));
}

TEST(Coarsen, SlotsAreRecycled) {
  check_slots_are_recycled(unit_square(4));
}

// Pins bisection order, child layout, slot recycling and the incremental
// dual bookkeeping of the 2D mesh. Every fingerprint and committed result
// depends on them, so a new digest means changed behaviour, not a refactor.
TEST(MeshPin, AdaptationSequence2D) {
  EXPECT_EQ(adaptation_digest(unit_square(6, 0.25, 3), {-0.6, 0.5},
                              {0.25, -0.2}, 0.5, 6),
            7638366655349221593ull);
}

TEST(Dual, FineDualMatchesLeafCount) {
  check_fine_dual_matches_leaf_count(unit_square(4));
}

TEST(Dual, FineDualDegreesAtMostThree) {
  TriMesh m = unit_square(5, 0.2, 9);
  m.refine(leaves_in_disc(m, 0.5, 0.5, 0.6));
  const auto dual = fine_dual_graph(m);
  for (graph::VertexId v = 0; v < dual.graph.num_vertices(); ++v)
    EXPECT_LE(dual.graph.degree(v), 3);
}

TEST(Dual, NestedWeightsSumToLeaves) {
  TriMesh m = unit_square(4);
  for (int round = 0; round < 3; ++round)
    m.refine(leaves_in_disc(m, 0.9, 0.9, 0.4));
  const auto g = nested_dual_graph(m);
  EXPECT_EQ(g.num_vertices(), m.num_initial_elements());
  EXPECT_EQ(g.total_vertex_weight(), m.num_leaves());
  EXPECT_TRUE(g.validate().empty()) << g.validate();
}

TEST(Dual, NestedEdgeWeightsCountAdjacentLeafPairs) {
  check_nested_edge_weights_count_adjacent_leaf_pairs(
      unit_square(2));  // 8 initial triangles
}

TEST(Dual, IncrementalInterfaceWeightsMatchBruteForce) {
  check_incremental_interface_weights_match_brute_force(
      unit_square(5, 0.2, 23),
      [](const TriMesh& m) { return leaves_in_disc(m, 0.4, -0.2, 0.7); },
      [](const TriMesh& m) { return leaves_in_disc(m, -0.5, 0.5, 0.5); });
}

TEST(Dual, ProjectionAssignsAncestorSubset) {
  check_projection_assigns_ancestor_subset(unit_square(2));
}

TEST(Metrics, SharedVerticesSimpleSplit) {
  // 2×2 grid split left/right: the three middle-column vertices are shared.
  TriMesh m = unit_square(2);
  const auto leaves = m.leaf_elements();
  std::vector<part::PartId> assign(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i)
    assign[i] = m.centroid(leaves[i]).x < 0.0 ? 0 : 1;
  EXPECT_EQ(shared_vertices(m, leaves, assign), 3);
}

TEST(Metrics, NoSharedVerticesForSinglePart) {
  TriMesh m = unit_square(3);
  const auto leaves = m.leaf_elements();
  std::vector<part::PartId> assign(leaves.size(), 0);
  EXPECT_EQ(shared_vertices(m, leaves, assign), 0);
}

TEST(Metrics, AdjacentSubdomainsOnStripes) {
  // Three vertical stripes: the middle one touches both others, the outer
  // ones touch only the middle.
  TriMesh m = unit_square(6);
  const auto dual = fine_dual_graph(m);
  std::vector<part::PartId> assign(dual.elems.size());
  for (std::size_t i = 0; i < dual.elems.size(); ++i) {
    const double x = m.centroid(dual.elems[i]).x;
    assign[i] = x < -0.33 ? 0 : (x < 0.33 ? 1 : 2);
  }
  const auto counts = adjacent_subdomains(dual.graph, assign, 3);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
}

TEST(Metrics, QualityAnglesBounded) {
  const TriMesh m = unit_square(6, 0.25, 13);
  const auto q = mesh_quality(m);
  EXPECT_GT(q.min_angle_deg, 5.0);
  EXPECT_LT(q.max_angle_deg, 175.0);
  EXPECT_GT(q.min_volume, 0.0);
}

TEST(Boundary, MaskMarksPerimeterOnly) {
  const TriMesh m = unit_square(3);
  const auto mask = m.boundary_vertex_mask();
  int boundary = 0;
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(m.vertex_slots()); ++v)
    boundary += mask[static_cast<std::size_t>(v)] ? 1 : 0;
  EXPECT_EQ(boundary, 12);  // 4×4 grid: 16 vertices, 4 interior
}

}  // namespace
}  // namespace pnr::mesh
