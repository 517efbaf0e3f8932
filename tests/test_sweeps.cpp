// Parameterized sweeps over (p, seed) exercising the end-to-end PNR
// contract on randomized adapted meshes: every repartition keeps all
// subsets populated, restores balance, moves at most the mesh, and is
// deterministic for a fixed seed. Plus the 3D determinism twin of the 2D
// replication-invariant test.

#include <gtest/gtest.h>

#include "core/pnr.hpp"
#include "mesh/dual.hpp"
#include "mesh/generate.hpp"
#include "partition/rebalance.hpp"
#include "util/rng.hpp"

namespace pnr {
namespace {

struct SweepCase {
  part::PartId p;
  std::uint64_t seed;
};

// The printed value is the ctest name suffix; without this googletest dumps
// the struct's raw bytes, padding included, and the names change per run.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "p" << c.p << "_seed" << c.seed;
}

void randomly_adapt(mesh::TriMesh& mesh, util::Rng& rng, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    std::vector<mesh::ElemIdx> marked;
    for (const mesh::ElemIdx e : mesh.leaf_elements())
      if (rng.next_below(4) == 0) marked.push_back(e);
    mesh.refine(marked);
    std::vector<mesh::ElemIdx> to_coarsen;
    for (const mesh::ElemIdx e : mesh.leaf_elements())
      if (rng.next_below(6) == 0) to_coarsen.push_back(e);
    mesh.coarsen(to_coarsen);
  }
}

class PnrSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PnrSweep, RepartitionContractHolds) {
  const auto c = GetParam();
  auto mesh = mesh::structured_tri_mesh(10, 10, 0.2, c.seed);
  util::Rng adapt_rng(c.seed * 31 + 1);
  core::Pnr pnr(c.p);
  util::Rng rng(c.seed);

  auto g = mesh::nested_dual_graph(mesh);
  auto pi = pnr.initial_partition(g, rng);
  EXPECT_TRUE(part::all_parts_used(g, pi));

  for (int round = 0; round < 3; ++round) {
    randomly_adapt(mesh, adapt_rng, 1);
    g = mesh::nested_dual_graph(mesh);
    core::RepartitionStats stats;
    pi = pnr.repartition(g, pi, rng, &stats);
    ASSERT_TRUE(pi.valid_for(g));
    EXPECT_TRUE(part::all_parts_used(g, pi));
    EXPECT_LE(stats.imbalance_after, 0.08)
        << "p=" << c.p << " seed=" << c.seed << " round=" << round;
    EXPECT_LE(stats.migrate, g.total_vertex_weight());
    EXPECT_GE(stats.migrate, 0);
  }
}

TEST_P(PnrSweep, DeterministicForFixedSeed) {
  const auto c = GetParam();
  auto run = [&] {
    auto mesh = mesh::structured_tri_mesh(8, 8, 0.2, c.seed);
    util::Rng adapt_rng(c.seed + 5);
    core::Pnr pnr(c.p);
    util::Rng rng(c.seed);
    auto g = mesh::nested_dual_graph(mesh);
    auto pi = pnr.initial_partition(g, rng);
    randomly_adapt(mesh, adapt_rng, 2);
    g = mesh::nested_dual_graph(mesh);
    return pnr.repartition(g, pi, rng).assign;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    PSeedGrid, PnrSweep,
    ::testing::Values(SweepCase{2, 1}, SweepCase{3, 2}, SweepCase{4, 3},
                      SweepCase{6, 4}, SweepCase{8, 5}, SweepCase{12, 6},
                      SweepCase{16, 7}, SweepCase{4, 1000},
                      SweepCase{8, 424242}));

class RebalanceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RebalanceSweep, RandomSkewAlwaysImproves) {
  auto mesh = mesh::structured_tri_mesh(9, 9, 0.2, GetParam());
  util::Rng rng(GetParam());
  randomly_adapt(mesh, rng, 2);
  const auto dual = mesh::fine_dual_graph(mesh);

  // Random geometric skew: everything left of a random line goes to part 0.
  const double split = rng.uniform(-0.6, 0.6);
  part::Partition pi(3, std::vector<part::PartId>(
                            static_cast<std::size_t>(dual.graph.num_vertices())));
  for (std::size_t i = 0; i < dual.elems.size(); ++i) {
    const auto cen = mesh.centroid(dual.elems[i]);
    pi.assign[i] = cen.x < split ? 0 : (cen.y < 0 ? 1 : 2);
  }
  const double before = part::imbalance(dual.graph, pi);
  part::RebalanceOptions opt;
  opt.tol = 0.02;
  part::rebalance_greedy(dual.graph, pi, opt);
  const double after = part::imbalance(dual.graph, pi);
  EXPECT_LE(after, std::max(0.05, before));
  EXPECT_TRUE(part::all_parts_used(dual.graph, pi));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebalanceSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

TEST(TetDeterminism, SameAdaptationSameMesh) {
  auto build = [] {
    auto mesh = mesh::structured_tet_mesh(3, 3, 3, 0.1, 11);
    util::Rng rng(77);
    for (int round = 0; round < 3; ++round) {
      std::vector<mesh::ElemIdx> marked;
      for (const mesh::ElemIdx e : mesh.leaf_elements())
        if (rng.next_below(4) == 0) marked.push_back(e);
      mesh.refine(marked);
      std::vector<mesh::ElemIdx> to_coarsen;
      for (const mesh::ElemIdx e : mesh.leaf_elements())
        if (rng.next_below(6) == 0) to_coarsen.push_back(e);
      mesh.coarsen(to_coarsen);
    }
    return mesh;
  };
  const auto a = build();
  const auto b = build();
  ASSERT_EQ(a.num_leaves(), b.num_leaves());
  ASSERT_EQ(a.leaf_elements(), b.leaf_elements());
  for (const mesh::ElemIdx e : a.leaf_elements()) {
    EXPECT_EQ(a.element(e).v, b.element(e).v);
    EXPECT_EQ(a.element(e).level, b.element(e).level);
  }
}

}  // namespace
}  // namespace pnr
