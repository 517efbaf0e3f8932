#pragma once
// Dimension-generic bodies of the dual-graph tests. test_tri_mesh.cpp runs
// each on a TriMesh (TEST(Dual, ...)) and test_tet_mesh.cpp on a TetMesh
// (TEST(Dual3D, ...)), so both instantiations of mesh/dual are exercised by
// the same assertions.

#include <gtest/gtest.h>

#include <vector>

#include "graph/builder.hpp"
#include "mesh/dual.hpp"

namespace pnr::mesh {

/// The fine dual of a lightly refined mesh has one unit-weight vertex per
/// leaf and a valid CSR.
template <typename Mesh>
void check_fine_dual_matches_leaf_count(Mesh m) {
  m.refine({0, 1, 2});
  const auto dual = fine_dual_graph(m);
  EXPECT_EQ(dual.graph.num_vertices(),
            static_cast<graph::VertexId>(m.num_leaves()));
  EXPECT_TRUE(dual.graph.validate().empty()) << dual.graph.validate();
  // Every dual vertex weight is 1 (fine graph counts elements).
  for (graph::VertexId v = 0; v < dual.graph.num_vertices(); ++v)
    EXPECT_EQ(dual.graph.vertex_weight(v), 1);
}

/// Refining one initial element heavily raises its nested-dual vertex
/// weight and never lowers the weight of its interfaces.
template <typename Mesh>
void check_nested_edge_weights_count_adjacent_leaf_pairs(Mesh m) {
  const auto g0 = nested_dual_graph(m);
  for (int round = 0; round < 3; ++round) {
    std::vector<ElemIdx> marked;
    for (const ElemIdx e : m.leaf_elements())
      if (m.element(e).coarse == 0) marked.push_back(e);
    m.refine(marked);
  }
  const auto g1 = nested_dual_graph(m);
  EXPECT_GT(g1.vertex_weight(0), g0.vertex_weight(0));
  EXPECT_GE(g1.weighted_degree(0), g0.weighted_degree(0));
}

/// The nested graph is assembled from incrementally maintained interface
/// counters; they must agree with a scan of the fine leaf interfaces after
/// an arbitrary refine/coarsen history. Each of three rounds refines
/// `refine_region(m)` and then coarsens `coarsen_region(m)`.
template <typename Mesh, typename RefineRegion, typename CoarsenRegion>
void check_incremental_interface_weights_match_brute_force(
    Mesh m, RefineRegion&& refine_region, CoarsenRegion&& coarsen_region) {
  for (int round = 0; round < 3; ++round) {
    m.refine(refine_region(m));
    m.coarsen(coarsen_region(m));
  }
  const auto g = nested_dual_graph(m);

  graph::GraphBuilder brute(m.num_initial_elements());
  for (ElemIdx c = 0; c < m.num_initial_elements(); ++c)
    brute.set_vertex_weight(c, m.leaf_count(c));
  m.for_each_leaf_interface([&](ElemIdx e1, ElemIdx e2) {
    if (e1 == kNoElem || e2 == kNoElem) return;
    if (m.element(e1).coarse != m.element(e2).coarse)
      brute.add_edge(m.element(e1).coarse, m.element(e2).coarse, 1);
  });
  const auto expected = brute.build();

  ASSERT_EQ(g.num_vertices(), expected.num_vertices());
  ASSERT_EQ(g.num_edges(), expected.num_edges());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.vertex_weight(v), expected.vertex_weight(v));
    for (const graph::VertexId u : expected.neighbors(v))
      EXPECT_EQ(g.edge_weight(v, u), expected.edge_weight(v, u));
  }
}

/// Projecting a coarse assignment gives every leaf its ancestor's subset.
template <typename Mesh>
void check_projection_assigns_ancestor_subset(Mesh m) {
  m.refine(m.leaf_elements());
  const auto leaves = m.leaf_elements();
  std::vector<part::PartId> coarse(
      static_cast<std::size_t>(m.num_initial_elements()));
  for (std::size_t c = 0; c < coarse.size(); ++c)
    coarse[c] = static_cast<part::PartId>(c % 2);
  const auto fine = project_coarse_assignment(m, leaves, coarse);
  for (std::size_t i = 0; i < leaves.size(); ++i)
    EXPECT_EQ(fine[i],
              coarse[static_cast<std::size_t>(m.element(leaves[i]).coarse)]);
}

}  // namespace pnr::mesh
