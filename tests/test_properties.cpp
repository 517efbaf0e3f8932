// Property-based suites over seeds and sizes: refinement determinism (the
// replication invariant the Figure 2 protocol relies on), bisection
// geometry, spectral quality of the Fiedler solver, CSR validation
// rejection cases, and the Theorem 6.1 bounds under uniform refinement.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/snap.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/laplacian.hpp"
#include "mesh/dual.hpp"
#include "mesh/generate.hpp"
#include "mesh/metrics.hpp"
#include "partition/rsb.hpp"
#include "util/rng.hpp"

namespace pnr {
namespace {

// ---- refinement determinism --------------------------------------------------

class RefineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefineDeterminism, SameMarksSameMesh) {
  const std::uint64_t seed = GetParam();
  auto build = [&] {
    auto mesh = mesh::structured_tri_mesh(9, 9, 0.25, seed);
    util::Rng rng(seed ^ 0xabcdef);
    for (int round = 0; round < 4; ++round) {
      std::vector<mesh::ElemIdx> marked;
      for (const mesh::ElemIdx e : mesh.leaf_elements())
        if (rng.next_below(3) == 0) marked.push_back(e);
      mesh.refine(marked);
      std::vector<mesh::ElemIdx> to_coarsen;
      for (const mesh::ElemIdx e : mesh.leaf_elements())
        if (rng.next_below(5) == 0) to_coarsen.push_back(e);
      mesh.coarsen(to_coarsen);
    }
    return mesh;
  };
  const auto a = build();
  const auto b = build();
  ASSERT_EQ(a.element_slots(), b.element_slots());
  ASSERT_EQ(a.num_leaves(), b.num_leaves());
  ASSERT_EQ(a.num_vertices_alive(), b.num_vertices_alive());
  const auto la = a.leaf_elements();
  const auto lb = b.leaf_elements();
  ASSERT_EQ(la, lb);
  for (const mesh::ElemIdx e : la) {
    EXPECT_EQ(a.element(e).v, b.element(e).v);
    for (const mesh::VertIdx v : a.element(e).v) {
      EXPECT_EQ(a.vertex(v).x, b.vertex(v).x);
      EXPECT_EQ(a.vertex(v).y, b.vertex(v).y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineDeterminism,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99991u));

// ---- bisection geometry -------------------------------------------------------

class BisectionGeometry : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BisectionGeometry, ChildrenHalveTheParent) {
  auto mesh = mesh::structured_tri_mesh(6, 6, 0.25, GetParam());
  mesh.refine(mesh.leaf_elements());
  for (std::size_t e = 0; e < mesh.element_slots(); ++e) {
    const auto& t = mesh.element(static_cast<mesh::ElemIdx>(e));
    if (!t.alive || t.leaf) continue;
    const double pa = mesh.signed_measure(static_cast<mesh::ElemIdx>(e));
    const double c0 = mesh.signed_measure(t.child[0]);
    const double c1 = mesh.signed_measure(t.child[1]);
    EXPECT_NEAR(c0 + c1, pa, 1e-12 * std::abs(pa) + 1e-300);
    // A midpoint bisection gives exactly equal halves.
    EXPECT_NEAR(c0, c1, 1e-12 * std::abs(pa) + 1e-300);
  }
}

TEST_P(BisectionGeometry, MinAngleBoundedUnderDeepRefinement) {
  // Rivara's guarantee: the minimum angle never drops below half the
  // initial minimum angle, no matter how deep the refinement.
  auto mesh = mesh::structured_tri_mesh(6, 6, 0.2, GetParam());
  const auto q0 = mesh::mesh_quality(mesh);
  for (int round = 0; round < 6; ++round) {
    std::vector<mesh::ElemIdx> marked;
    for (const mesh::ElemIdx e : mesh.leaf_elements()) {
      const auto c = mesh.centroid(e);
      if (c.x > 0.4 && c.y > 0.4) marked.push_back(e);
    }
    mesh.refine(marked);
  }
  const auto q = mesh::mesh_quality(mesh);
  EXPECT_GE(q.min_angle_deg, q0.min_angle_deg / 2.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BisectionGeometry,
                         ::testing::Values(2u, 17u, 333u));

// ---- Fiedler quality ----------------------------------------------------------

TEST(FiedlerQuality, RayleighQuotientNearLambda2OnPath) {
  // λ2 of the n-path is 2(1 − cos(π/n)).
  const int n = 64;
  graph::GraphBuilder b(n);
  for (graph::VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  const auto g = b.build();
  util::Rng rng(5);
  const auto x = part::fiedler_vector(g, rng);
  std::vector<double> y(static_cast<std::size_t>(n));
  graph::laplacian_apply(g, x, y);
  const double rho = graph::dot(x, y);
  const double lambda2 = 2.0 * (1.0 - std::cos(std::numbers::pi / n));
  EXPECT_GE(rho, lambda2 * 0.999);
  EXPECT_LE(rho, lambda2 * 3.0);  // approximate vector, generous factor
}

TEST(FiedlerQuality, DisconnectedGraphSeparatesComponents) {
  graph::GraphBuilder b(8);
  for (graph::VertexId v = 0; v < 3; ++v) b.add_edge(v, v + 1);
  for (graph::VertexId v = 4; v < 7; ++v) b.add_edge(v, v + 1);
  const auto g = b.build();
  util::Rng rng(6);
  const auto x = part::fiedler_vector(g, rng);
  // λ2 = 0: the vector is (near-)constant per component with opposite signs.
  for (int v = 1; v < 4; ++v)
    EXPECT_NEAR(x[static_cast<std::size_t>(v)], x[0], 1e-4);
  EXPECT_LT(x[0] * x[4], 0.0);
}

// ---- CSR validation rejects broken graphs -------------------------------------

TEST(Validate, DetectsAsymmetricWeights) {
  // Hand-build an asymmetric CSR: edge 0->1 weight 2, 1->0 weight 3.
  graph::Graph g({0, 1, 2}, {1, 0}, {2, 3}, {1, 1});
  EXPECT_FALSE(g.validate().empty());
}

TEST(Validate, DetectsSelfLoop) {
  graph::Graph g({0, 1, 1}, {0}, {1}, {1, 1});
  EXPECT_FALSE(g.validate().empty());
}

TEST(Validate, DetectsDanglingNeighbor) {
  graph::Graph g({0, 1, 2}, {5, 0}, {1, 1}, {1, 1});
  EXPECT_FALSE(g.validate().empty());
}

TEST(Validate, DetectsNegativeWeights) {
  graph::Graph g({0, 1, 2}, {1, 0}, {-1, -1}, {1, 1});
  EXPECT_FALSE(g.validate().empty());
  graph::Graph h({0, 1, 2}, {1, 0}, {1, 1}, {-2, 1});
  EXPECT_FALSE(h.validate().empty());
}

// ---- Theorem 6.1 under uniform refinement -------------------------------------

TEST(Competitive, SnapBoundsHoldUnderUniformRefinement) {
  // Refine every element to uniform depth d = 3, partition the fine mesh,
  // snap to coarse boundaries, and check the theorem's claims: the cut
  // grows by at most a small constant factor (bound: 9) and the balance
  // deteriorates by at most an additive (p-1)d² elements.
  const int d = 3;
  auto mesh = mesh::structured_tri_mesh(6, 6, 0.15, 4);
  for (int round = 0; round < d; ++round) mesh.refine(mesh.leaf_elements());

  const auto elems = mesh.leaf_elements();
  const auto dual = mesh::fine_dual_graph(mesh);
  const part::PartId p = 4;
  util::Rng rng(7);
  const auto pi = part::rsb(dual.graph, p, rng);
  const auto snap = core::snap_to_coarse(mesh, elems, pi.assign, p);

  const auto cut_before = part::cut_size(dual.graph, pi);
  const auto cut_after =
      part::cut_size(dual.graph, part::Partition(p, snap.fine_assign));
  EXPECT_LE(cut_after, 9 * cut_before);

  const auto weights = part::part_weights(
      dual.graph, part::Partition(p, snap.fine_assign));
  const auto before = part::part_weights(dual.graph, pi);
  graph::Weight max_before = 0, max_after = 0;
  for (const auto w : before) max_before = std::max(max_before, w);
  for (const auto w : weights) max_after = std::max(max_after, w);
  // Additive slack (p-1)d²·(leaves per coarse element at depth d) — the
  // theorem counts coarse-level displacement; translate to fine elements.
  const auto slack = static_cast<graph::Weight>((p - 1) * d * d * (1 << d));
  EXPECT_LE(max_after, max_before + slack);
}

// ---- dual-graph/partition interplay -------------------------------------------

class NestedConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NestedConsistency, CoarseCutEqualsFineCutForNestedPartitions) {
  // For any partition that respects coarse boundaries, the cut of the
  // nested graph equals the cut of the fine dual graph.
  auto mesh = mesh::structured_tri_mesh(5, 5, 0.2, GetParam());
  util::Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    std::vector<mesh::ElemIdx> marked;
    for (const mesh::ElemIdx e : mesh.leaf_elements())
      if (rng.next_below(4) == 0) marked.push_back(e);
    mesh.refine(marked);
  }
  const auto coarse = mesh::nested_dual_graph(mesh);
  std::vector<part::PartId> coarse_assign(
      static_cast<std::size_t>(mesh.num_initial_elements()));
  for (auto& a : coarse_assign)
    a = static_cast<part::PartId>(rng.next_below(4));
  const auto elems = mesh.leaf_elements();
  const auto fine_assign =
      mesh::project_coarse_assignment(mesh, elems, coarse_assign);
  const auto fine = mesh::fine_dual_graph(mesh);

  EXPECT_EQ(part::cut_size(coarse, part::Partition(4, coarse_assign)),
            part::cut_size(fine.graph, part::Partition(4, fine_assign)));
  // Vertex weights mirror leaf ownership: total weight per part matches.
  const auto wc =
      part::part_weights(coarse, part::Partition(4, coarse_assign));
  const auto wf =
      part::part_weights(fine.graph, part::Partition(4, fine_assign));
  EXPECT_EQ(wc, wf);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedConsistency,
                         ::testing::Values(3u, 11u, 29u, 101u));

}  // namespace
}  // namespace pnr
