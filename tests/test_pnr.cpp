// Tests for the PNR core: initial partitioning of weighted nested graphs,
// migration-aware repartitioning (balance restoration, migration economy,
// stability), the ablation switches and the Theorem 6.1 snap.

#include <gtest/gtest.h>

#include <cmath>

#include "core/pnr.hpp"
#include "core/snap.hpp"
#include "fem/estimator.hpp"
#include "fem/problems.hpp"
#include "graph/builder.hpp"
#include "mesh/dual.hpp"
#include "mesh/generate.hpp"
#include "mesh/metrics.hpp"

namespace pnr::core {
namespace {

/// Weighted grid graph: one heavy block in a corner (mimics an adapted
/// nested graph).
graph::Graph weighted_grid(int nx, int ny, graph::Weight corner_weight) {
  graph::GraphBuilder b(nx * ny);
  auto id = [&](int i, int j) { return static_cast<graph::VertexId>(j * nx + i); };
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      if (i + 1 < nx) b.add_edge(id(i, j), id(i + 1, j));
      if (j + 1 < ny) b.add_edge(id(i, j), id(i, j + 1));
      if (i >= nx - 3 && j >= ny - 3) b.set_vertex_weight(id(i, j), corner_weight);
    }
  return b.build();
}

TEST(PnrInitial, BalancedAndAllPartsUsed) {
  const auto g = weighted_grid(12, 12, 20);
  Pnr pnr(8);
  util::Rng rng(1);
  const auto pi = pnr.initial_partition(g, rng);
  EXPECT_TRUE(pi.valid_for(g));
  EXPECT_TRUE(part::all_parts_used(g, pi));
  EXPECT_LE(part::imbalance(g, pi), 0.06);
}

TEST(PnrRepartition, NoChangeNoMigration) {
  const auto g = weighted_grid(10, 10, 1);
  Pnr pnr(4);
  util::Rng rng(2);
  const auto pi = pnr.initial_partition(g, rng);
  RepartitionStats stats;
  const auto pi2 = pnr.repartition(g, pi, rng, &stats);
  // Nothing changed, so very little (ideally nothing) should move.
  EXPECT_LE(stats.migrate, g.total_vertex_weight() / 20);
  EXPECT_LE(part::imbalance(g, pi2), 0.06);
}

TEST(PnrRepartition, RestoresBalanceAfterLocalGrowth) {
  // Start balanced on unit weights, then grow one corner's weights 10x.
  const auto before = weighted_grid(12, 12, 1);
  Pnr pnr(4);
  util::Rng rng(3);
  const auto pi = pnr.initial_partition(before, rng);

  const auto after = weighted_grid(12, 12, 10);
  RepartitionStats stats;
  const auto pi2 = pnr.repartition(after, pi, rng, &stats);
  // One weight-10 vertex is ~18% of a part here, so the achievable ε is
  // granularity-limited; what matters is that balance is restored.
  EXPECT_LE(stats.imbalance_after, 0.12);
  EXPECT_LT(stats.imbalance_after, stats.imbalance_before);
  EXPECT_TRUE(part::all_parts_used(after, pi2));
}

TEST(PnrRepartition, MigrationNearTheNecessaryMinimum) {
  const auto before = weighted_grid(12, 12, 1);
  Pnr pnr(4);
  util::Rng rng(4);
  const auto pi = pnr.initial_partition(before, rng);

  const auto after = weighted_grid(12, 12, 10);
  RepartitionStats stats;
  pnr.repartition(after, pi, rng, &stats);
  // The 9 corner vertices grew from 1 to 10: 81 extra weight appeared in
  // one subset; ~3/4 of it must leave. Allow generous slack for the KL
  // polish, but far less than "half the mesh" (total weight is 225).
  const graph::Weight total = after.total_vertex_weight();
  EXPECT_LT(stats.migrate, total / 2);
  EXPECT_GT(stats.migrate, 0);
}

TEST(PnrRepartition, StatsAreConsistent) {
  const auto before = weighted_grid(10, 10, 1);
  Pnr pnr(4);
  util::Rng rng(5);
  const auto pi = pnr.initial_partition(before, rng);
  const auto after = weighted_grid(10, 10, 6);
  RepartitionStats stats;
  const auto pi2 = pnr.repartition(after, pi, rng, &stats);
  EXPECT_EQ(stats.cut_before, part::cut_size(after, pi));
  EXPECT_EQ(stats.cut_after, part::cut_size(after, pi2));
  EXPECT_EQ(stats.migrate, part::migration_cost(after, pi, pi2));
  EXPECT_DOUBLE_EQ(stats.imbalance_after, part::imbalance(after, pi2));
}

TEST(PnrRepartition, AblationSwitchesStillProduceValidPartitions) {
  const auto before = weighted_grid(10, 10, 1);
  const auto after = weighted_grid(10, 10, 6);
  for (const bool scratch : {false, true})
    for (const bool random : {false, true}) {
      PnrOptions opt;
      opt.repartition_coarsest = scratch;
      opt.random_matching = random;
      Pnr pnr(4, opt);
      util::Rng rng(6);
      const auto pi = pnr.initial_partition(before, rng);
      const auto pi2 = pnr.repartition(after, pi, rng);
      EXPECT_TRUE(pi2.valid_for(after));
      EXPECT_TRUE(part::all_parts_used(after, pi2));
    }
}

TEST(PnrRepartition, SoftEq1ModeKeepsBalance) {
  PnrOptions opt;
  opt.hard_balance = false;  // literal Eq. 1
  const auto before = weighted_grid(10, 10, 1);
  const auto after = weighted_grid(10, 10, 6);
  Pnr pnr(4, opt);
  util::Rng rng(7);
  const auto pi = pnr.initial_partition(before, rng);
  RepartitionStats stats;
  pnr.repartition(after, pi, rng, &stats);
  EXPECT_LE(stats.imbalance_after, 0.25);  // soft mode is looser but sane
}

TEST(PnrMesh, EndToEndOnAdaptedTriMesh) {
  auto mesh = mesh::structured_tri_mesh(12, 12, 0.2, 9);
  const auto field = fem::corner_problem_2d();
  Pnr pnr(4);
  util::Rng rng(8);
  auto g = mesh::nested_dual_graph(mesh);
  auto pi = pnr.initial_partition(g, rng);

  for (int round = 0; round < 3; ++round) {
    fem::MarkOptions mark;
    mark.refine_threshold = 0.02 * std::pow(0.5, round);
    mark.max_level = round + 3;
    mesh.refine(fem::mark_for_refinement(mesh, field, mark));
    g = mesh::nested_dual_graph(mesh);
    RepartitionStats stats;
    pi = pnr.repartition(g, pi, rng, &stats);
    EXPECT_LE(stats.imbalance_after, 0.08);
    // Migration should be well under the adapted mesh size.
    EXPECT_LT(stats.migrate, mesh.num_leaves());
  }
  const auto elems = mesh.leaf_elements();
  const auto fine = mesh::project_coarse_assignment(mesh, elems, pi.assign);
  EXPECT_GT(mesh::shared_vertices(mesh, elems, fine), 0);
}

TEST(Snap, IdentityWhenAlreadyNested) {
  auto mesh = mesh::structured_tri_mesh(6, 6, 0.0, 1);
  mesh.refine(mesh.leaf_elements());
  const auto elems = mesh.leaf_elements();
  // A partition constant on each coarse element: snapping must not change it.
  std::vector<part::PartId> fine(elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i)
    fine[i] = static_cast<part::PartId>(mesh.element(elems[i]).coarse % 4);
  const auto snap = snap_to_coarse(mesh, elems, fine, 4);
  EXPECT_EQ(snap.fine_assign, fine);
}

TEST(Snap, MajorityRules) {
  auto mesh = mesh::structured_tri_mesh(4, 4, 0.0, 1);
  mesh.refine(mesh.leaf_elements());
  mesh.refine(mesh.leaf_elements());
  const auto elems = mesh.leaf_elements();
  // Coarse element 0 gets 3/4 of its leaves on processor 1.
  std::vector<part::PartId> fine(elems.size(), 0);
  int count = 0;
  for (std::size_t i = 0; i < elems.size(); ++i)
    if (mesh.element(elems[i]).coarse == 0 && count++ % 4 != 0) fine[i] = 1;
  const auto snap = snap_to_coarse(mesh, elems, fine, 2);
  EXPECT_EQ(snap.coarse_assign[0], 1);
}

TEST(Snap, ProducesValidNestedPartition3D) {
  auto mesh = mesh::structured_tet_mesh(3, 3, 3, 0.0, 1);
  mesh.refine(mesh.leaf_elements());
  const auto elems = mesh.leaf_elements();
  std::vector<part::PartId> fine(elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i)
    fine[i] = static_cast<part::PartId>(i % 3);
  const auto snap = snap_to_coarse(mesh, elems, fine, 3);
  for (std::size_t i = 0; i < elems.size(); ++i)
    EXPECT_EQ(snap.fine_assign[i],
              snap.coarse_assign[static_cast<std::size_t>(
                  mesh.element(elems[i]).coarse)]);
}

}  // namespace
}  // namespace pnr::core
