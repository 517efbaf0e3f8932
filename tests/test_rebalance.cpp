// Tests for the flow-directed rebalancer (PNR's phase A) — drains
// overweight subsets through the Hu–Blake potentials without ping-pong.

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "partition/rebalance.hpp"
#include "util/rng.hpp"

namespace pnr::part {
namespace {

Graph grid_graph(int nx, int ny) {
  graph::GraphBuilder b(nx * ny);
  auto id = [&](int i, int j) { return static_cast<graph::VertexId>(j * nx + i); };
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      if (i + 1 < nx) b.add_edge(id(i, j), id(i + 1, j));
      if (j + 1 < ny) b.add_edge(id(i, j), id(i, j + 1));
    }
  return b.build();
}

TEST(Rebalance, NoopWhenBalanced) {
  const Graph g = grid_graph(8, 8);
  Partition pi(2, std::vector<PartId>(64));
  for (int v = 0; v < 64; ++v)
    pi.assign[static_cast<std::size_t>(v)] = (v % 8 < 4) ? 0 : 1;
  const auto r = rebalance_greedy(g, pi);
  EXPECT_TRUE(r.balanced);
  EXPECT_EQ(r.moves, 0);
}

TEST(Rebalance, DrainsOneOverweightPart) {
  const Graph g = grid_graph(8, 8);
  // 3/4 of the grid on part 0.
  Partition pi(2, std::vector<PartId>(64));
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i)
      pi.assign[static_cast<std::size_t>(j * 8 + i)] = i >= 6 ? 1 : 0;
  RebalanceOptions opt;
  opt.tol = 0.02;
  const auto r = rebalance_greedy(g, pi, opt);
  EXPECT_TRUE(r.balanced);
  EXPECT_GT(r.moves, 0);
  EXPECT_LE(imbalance(g, pi), 0.05);
  // Weight moved ≈ the imbalance (32 − 16 = 16 vertices), not the mesh.
  EXPECT_LE(r.weight_moved, 24);
}

TEST(Rebalance, PushesThroughAChainOfParts) {
  // Stripes 0|1|2 where part 0 is heavily overweight and part 2 is light:
  // weight must flow through part 1.
  const Graph g = grid_graph(12, 4);
  Partition pi(3, std::vector<PartId>(48));
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 12; ++i) {
      PartId p = 0;
      if (i >= 8) p = 1;
      if (i >= 10) p = 2;
      pi.assign[static_cast<std::size_t>(j * 12 + i)] = p;
    }
  RebalanceOptions opt;
  opt.tol = 0.05;
  const auto r = rebalance_greedy(g, pi, opt);
  EXPECT_TRUE(r.balanced);
  const auto w = part_weights(g, pi);
  for (const Weight x : w) EXPECT_NEAR(static_cast<double>(x), 16.0, 3.0);
  (void)r;
}

TEST(Rebalance, RespectsCustomTargets) {
  const Graph g = grid_graph(10, 2);
  Partition pi(2, std::vector<PartId>(20, 0));
  for (int v = 15; v < 20; ++v) pi.assign[static_cast<std::size_t>(v)] = 1;
  const std::vector<Weight> targets{5, 15};  // part 0 should shrink to 5
  RebalanceOptions opt;
  opt.targets = &targets;
  opt.tol = 0.05;
  rebalance_greedy(g, pi, opt);
  const auto w = part_weights(g, pi);
  EXPECT_LE(w[0], 6);
}

TEST(Rebalance, WeightedVerticesHandled) {
  graph::GraphBuilder b(6);
  for (graph::VertexId v = 0; v + 1 < 6; ++v) b.add_edge(v, v + 1);
  for (graph::VertexId v = 0; v < 6; ++v) b.set_vertex_weight(v, 10);
  b.set_vertex_weight(0, 40);
  const Graph g = b.build();  // weights 40 10 10 10 10 10 = 90
  Partition pi(2, {0, 0, 0, 1, 1, 1});  // 60 vs 30
  RebalanceOptions opt;
  opt.tol = 0.2;
  const auto r = rebalance_greedy(g, pi, opt);
  const auto w = part_weights(g, pi);
  EXPECT_LE(std::max(w[0], w[1]), 60);
  EXPECT_GT(r.weight_moved, 0);
}

TEST(Rebalance, NeverEmptiesAPart) {
  const Graph g = grid_graph(4, 1);
  Partition pi(2, {0, 0, 0, 1});
  const std::vector<Weight> targets{4, 0};  // pathological target
  RebalanceOptions opt;
  opt.targets = &targets;
  rebalance_greedy(g, pi, opt);
  EXPECT_TRUE(all_parts_used(g, pi));
}

TEST(Rebalance, MigrationGainPrefersHomecoming) {
  const Graph g = grid_graph(8, 8);
  // Part 0 overweight; two candidate vertices equivalent for the cut, but
  // one is "away from home" — alpha should prefer returning it.
  Partition pi(2, std::vector<PartId>(64));
  std::vector<PartId> home(64);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i) {
      const auto idx = static_cast<std::size_t>(j * 8 + i);
      pi.assign[idx] = i >= 6 ? 1 : 0;
      home[idx] = i >= 4 ? 1 : 0;  // columns 4,5 are displaced
    }
  RebalanceOptions opt;
  opt.tol = 0.02;
  opt.alpha = 10.0;
  opt.home = &home;
  rebalance_greedy(g, pi, opt);
  // The displaced columns should be the ones that moved to part 1.
  int displaced_restored = 0;
  for (int j = 0; j < 8; ++j)
    for (int i = 4; i < 6; ++i)
      displaced_restored +=
          pi.assign[static_cast<std::size_t>(j * 8 + i)] == 1;
  EXPECT_GT(displaced_restored, 8);
}

TEST(QuotientGraph, StaysExactUnderRandomMoves) {
  const Graph g = grid_graph(12, 12);
  const PartId p = 5;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  util::Rng rng(17);
  Partition pi(p, std::vector<PartId>(n));
  for (auto& a : pi.assign)
    a = static_cast<PartId>(rng.next_below(static_cast<std::uint64_t>(p)));

  ConnTable conn;
  conn.build(g, pi.assign, p);
  QuotientGraph quotient;
  quotient.build(g, pi.assign, p);

  for (int move = 0; move < 500; ++move) {
    const auto v = static_cast<graph::VertexId>(rng.next_below(n));
    const PartId from = pi.assign[static_cast<std::size_t>(v)];
    PartId to =
        static_cast<PartId>(rng.next_below(static_cast<std::uint64_t>(p)));
    if (to == from) to = static_cast<PartId>((to + 1) % p);
    quotient.apply_move(conn, v, from, to);
    conn_apply_move(conn, g, v, from, to);
    pi.assign[static_cast<std::size_t>(v)] = to;
    if (move % 50 == 0) {
      ASSERT_EQ(quotient.violation(g, pi), "");
    }
  }
  EXPECT_EQ(quotient.violation(g, pi), "");

  QuotientGraph fresh;
  fresh.build(g, pi.assign, p);
  for (PartId a = 0; a < p; ++a)
    for (PartId b = static_cast<PartId>(a + 1); b < p; ++b)
      EXPECT_EQ(quotient.cross(a, b), fresh.cross(a, b));
  // The lazily rebuilt unit CSR (cached across zero-crossings) must equal a
  // from-scratch derivation's adjacency pattern.
  const graph::Graph& unit = quotient.unit_graph();
  const graph::Graph& unit_fresh = fresh.unit_graph();
  EXPECT_EQ(unit.xadj(), unit_fresh.xadj());
  EXPECT_EQ(unit.adjncy(), unit_fresh.adjncy());
}

TEST(Rebalance, SharedStateAdoptedAndHandedBackExact) {
  const Graph g = grid_graph(10, 10);
  Partition pi(2, std::vector<PartId>(100));
  for (int j = 0; j < 10; ++j)
    for (int i = 0; i < 10; ++i)
      pi.assign[static_cast<std::size_t>(j * 10 + i)] = i >= 7 ? 1 : 0;

  SharedConnState chain;
  RebalanceOptions opt;
  opt.tol = 0.02;
  const auto with_chain = rebalance_greedy(g, pi, opt, &chain);
  EXPECT_TRUE(chain.conn_valid);
  EXPECT_TRUE(chain.quotient_valid);
  // The handed-back state is exact for the final assignment...
  EXPECT_EQ(chain.quotient.violation(g, pi), "");
  ConnTable fresh;
  fresh.build(g, pi.assign, pi.num_parts);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(chain.conn.entries(v).size(), fresh.entries(v).size());
    for (const ConnTable::Slot& s : fresh.entries(v))
      EXPECT_EQ(chain.conn.get(v, s.part), s.weight);
  }
  // ...and the chained call produces the same partition as a cold one.
  Partition pi_cold(2, std::vector<PartId>(100));
  for (int j = 0; j < 10; ++j)
    for (int i = 0; i < 10; ++i)
      pi_cold.assign[static_cast<std::size_t>(j * 10 + i)] = i >= 7 ? 1 : 0;
  const auto cold = rebalance_greedy(g, pi_cold, opt);
  EXPECT_EQ(with_chain.moves, cold.moves);
  EXPECT_EQ(pi.assign, pi_cold.assign);
  // A second chained call adopts the carried state instead of rebuilding and
  // must behave like a no-op on the already balanced partition.
  const auto again = rebalance_greedy(g, pi, opt, &chain);
  EXPECT_TRUE(again.balanced);
  EXPECT_EQ(again.moves, 0);
  EXPECT_EQ(chain.quotient.violation(g, pi), "");
}

}  // namespace
}  // namespace pnr::part
