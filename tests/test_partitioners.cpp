// Integration/property tests for the full partitioners (Multilevel-KL, RSB,
// inertial, greedy growing) over seeds, part counts and mesh shapes, using
// parameterized suites.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/builder.hpp"
#include "mesh/dual.hpp"
#include "mesh/generate.hpp"
#include "partition/ggg.hpp"
#include "partition/inertial.hpp"
#include "partition/mlkl.hpp"
#include "partition/partitioner.hpp"
#include "partition/rcb.hpp"
#include "partition/rsb.hpp"

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

TEST(GreedyGrow, HitsTargetWeight) {
  const Graph g = grid_graph(10, 10);
  util::Rng rng(1);
  const auto side = greedy_grow_bisect(g, 50, rng);
  Weight w0 = 0;
  for (std::size_t v = 0; v < side.size(); ++v)
    if (side[v] == 0) w0 += g.vertex_weight(static_cast<graph::VertexId>(v));
  EXPECT_GE(w0, 50);
  EXPECT_LE(w0, 55);  // one absorb may overshoot slightly
}

TEST(GreedyGrow, HandlesDisconnectedGraph) {
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);  // vertices 4, 5 isolated
  const Graph g = b.build();
  util::Rng rng(2);
  const auto side = greedy_grow_bisect(g, 3, rng);
  int zeros = 0;
  for (const PartId s : side) zeros += s == 0;
  EXPECT_EQ(zeros, 3);
}

TEST(PseudoPeripheral, EndsFarFromStart) {
  const Graph g = grid_graph(10, 1);  // a path
  const auto v = pseudo_peripheral(g, 5);
  EXPECT_TRUE(v == 0 || v == 9);
}

TEST(Fiedler, SignSplitsAPathInHalf) {
  const Graph g = grid_graph(16, 1);
  util::Rng rng(3);
  const auto x = fiedler_vector(g, rng);
  // The Fiedler vector of a path is monotone: signs split contiguously.
  int sign_changes = 0;
  for (std::size_t v = 1; v < x.size(); ++v)
    if ((x[v] > 0) != (x[v - 1] > 0)) ++sign_changes;
  EXPECT_EQ(sign_changes, 1);
}

TEST(Fiedler, OrthogonalToOnesAndUnit) {
  const Graph g = grid_graph(12, 7);
  util::Rng rng(4);
  auto x = fiedler_vector(g, rng);
  double sum = 0.0, norm = 0.0;
  for (const double v : x) {
    sum += v;
    norm += v * v;
  }
  EXPECT_NEAR(sum, 0.0, 1e-6);
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

struct PwayCase {
  int nx, ny;
  PartId p;
  std::uint64_t seed;
};

// The printed value is the ctest name suffix; without this googletest dumps
// the struct's raw bytes, padding included, and the names change per run.
void PrintTo(const PwayCase& c, std::ostream* os) {
  *os << c.nx << "x" << c.ny << "_p" << c.p << "_seed" << c.seed;
}

class PwayPartitioners : public ::testing::TestWithParam<PwayCase> {};

TEST_P(PwayPartitioners, MlklBalancedAndValid) {
  const auto c = GetParam();
  const Graph g = grid_graph(c.nx, c.ny);
  util::Rng rng(c.seed);
  const Partition pi = multilevel_kl(g, c.p, rng);
  EXPECT_TRUE(pi.valid_for(g));
  EXPECT_TRUE(all_parts_used(g, pi));
  EXPECT_LE(imbalance(g, pi), 0.35);  // recursive bisection compounds tolerance
  // Cut sanity: far below the total edge weight.
  EXPECT_LT(cut_size(g, pi), g.num_edges() / 2);
}

TEST_P(PwayPartitioners, RsbBalancedAndValid) {
  const auto c = GetParam();
  const Graph g = grid_graph(c.nx, c.ny);
  util::Rng rng(c.seed);
  const Partition pi = rsb(g, c.p, rng);
  EXPECT_TRUE(pi.valid_for(g));
  EXPECT_TRUE(all_parts_used(g, pi));
  EXPECT_LE(imbalance(g, pi), 0.35);
  EXPECT_LT(cut_size(g, pi), g.num_edges() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, PwayPartitioners,
    ::testing::Values(PwayCase{8, 8, 2, 1}, PwayCase{8, 8, 4, 2},
                      PwayCase{16, 16, 4, 3}, PwayCase{16, 16, 8, 4},
                      PwayCase{16, 16, 3, 5},   // odd p
                      PwayCase{20, 10, 5, 6},   // odd p, rectangular
                      PwayCase{24, 24, 16, 7}, PwayCase{12, 3, 6, 8}));

TEST(Mlkl, GridCutNearOptimalForBisection) {
  // Bisecting an n×n grid optimally cuts n edges; accept ≤ 2n.
  const Graph g = grid_graph(16, 16);
  util::Rng rng(11);
  const Partition pi = multilevel_kl(g, 2, rng);
  EXPECT_LE(cut_size(g, pi), 32);
}

TEST(Rsb, GridCutNearOptimalForBisection) {
  const Graph g = grid_graph(16, 16);
  util::Rng rng(12);
  const Partition pi = rsb(g, 2, rng);
  EXPECT_LE(cut_size(g, pi), 32);
}

TEST(Inertial, SplitsAlongLongAxis) {
  // Strongly anisotropic grid: the principal axis is x, so a bisection
  // should cut a short vertical line (≈ ny edges).
  const Graph g = grid_graph(40, 4);
  std::vector<double> coords(static_cast<std::size_t>(g.num_vertices()) * 2);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 40; ++i) {
      coords[static_cast<std::size_t>(j * 40 + i) * 2] = i;
      coords[static_cast<std::size_t>(j * 40 + i) * 2 + 1] = j;
    }
  const Partition pi = inertial_partition(g, coords, 2, 2);
  EXPECT_TRUE(pi.valid_for(g));
  EXPECT_LE(cut_size(g, pi), 8);
  EXPECT_LE(imbalance(g, pi), 0.05);
}

TEST(Facade, ParsesAndRuns) {
  EXPECT_EQ(parse_method("mlkl"), Method::kMultilevelKL);
  EXPECT_EQ(parse_method("rsb"), Method::kRSB);
  EXPECT_EQ(parse_method("inertial"), Method::kInertial);
  EXPECT_EQ(parse_method("random"), Method::kRandom);
  EXPECT_FALSE(parse_method("nope").has_value());

  const Graph g = grid_graph(8, 8);
  util::Rng rng(14);
  PartitionerOptions opt;
  opt.method = Method::kRandom;
  const Partition pi = make_partition(g, 4, rng, opt);
  EXPECT_TRUE(pi.valid_for(g));
}

TEST(Facade, ParseNameRoundTripsForEveryMethod) {
  // parse_method must invert method_name for every enum value, including
  // the coordinate methods and the documented aliases.
  for (const Method m : {Method::kMultilevelKL, Method::kRSB,
                         Method::kInertial, Method::kRCB, Method::kRandom}) {
    const auto parsed = parse_method(method_name(m));
    ASSERT_TRUE(parsed.has_value()) << method_name(m);
    EXPECT_EQ(*parsed, m) << method_name(m);
  }
  EXPECT_EQ(parse_method("multilevel-kl"), Method::kMultilevelKL);
  EXPECT_EQ(parse_method("geometric"), Method::kInertial);
  EXPECT_EQ(parse_method("coordinate"), Method::kRCB);
}

TEST(MeshIntegration, MlklPartitionsAdaptedTriDual) {
  auto mesh = mesh::structured_tri_mesh(8, 8, 0.2, 21);
  for (int round = 0; round < 3; ++round) {
    std::vector<mesh::ElemIdx> marked;
    for (const mesh::ElemIdx e : mesh.leaf_elements()) {
      const auto c = mesh.centroid(e);
      if (c.x > 0.3 && c.y > 0.3) marked.push_back(e);
    }
    mesh.refine(marked);
  }
  const auto dual = mesh::fine_dual_graph(mesh);
  util::Rng rng(22);
  const Partition pi = multilevel_kl(dual.graph, 4, rng);
  EXPECT_TRUE(all_parts_used(dual.graph, pi));
  EXPECT_LE(imbalance(dual.graph, pi), 0.25);
}

TEST(Rcb, SplitsAlongWidestAxisWithGoodBalance) {
  const Graph g = grid_graph(40, 4);
  std::vector<double> coords(static_cast<std::size_t>(g.num_vertices()) * 2);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 40; ++i) {
      coords[static_cast<std::size_t>(j * 40 + i) * 2] = i;
      coords[static_cast<std::size_t>(j * 40 + i) * 2 + 1] = j;
    }
  const Partition pi = rcb_partition(g, coords, 2, 4);
  EXPECT_TRUE(pi.valid_for(g));
  EXPECT_TRUE(all_parts_used(g, pi));
  EXPECT_LE(imbalance(g, pi), 0.05);
  // Axis-aligned cuts through the long strip: ~4 edges per cut, 3 cuts.
  EXPECT_LE(cut_size(g, pi), 16);
}

TEST(Rcb, HandlesWeightedVertices) {
  graph::GraphBuilder b(6);
  for (graph::VertexId v = 0; v + 1 < 6; ++v) b.add_edge(v, v + 1);
  b.set_vertex_weight(0, 5);
  const Graph g = b.build();  // weights 5 1 1 1 1 1 = 10
  std::vector<double> coords(12);
  for (int v = 0; v < 6; ++v) coords[static_cast<std::size_t>(v) * 2] = v;
  const Partition pi = rcb_partition(g, coords, 2, 2);
  const auto w = part_weights(g, pi);
  EXPECT_EQ(std::max(w[0], w[1]), 5);
}

TEST(Facade, RcbMethodRuns) {
  EXPECT_EQ(parse_method("rcb"), Method::kRCB);
  const Graph g = grid_graph(10, 10);
  std::vector<double> coords(200);
  for (int j = 0; j < 10; ++j)
    for (int i = 0; i < 10; ++i) {
      coords[static_cast<std::size_t>(j * 10 + i) * 2] = i;
      coords[static_cast<std::size_t>(j * 10 + i) * 2 + 1] = j;
    }
  util::Rng rng(1);
  PartitionerOptions opt;
  opt.method = Method::kRCB;
  opt.coords = coords;
  const Partition pi = make_partition(g, 5, rng, opt);
  EXPECT_TRUE(all_parts_used(g, pi));
  EXPECT_LE(imbalance(g, pi), 0.1);
}

TEST(Mlkl, RandomMatchingAblationStillWorks) {
  const Graph g = grid_graph(16, 16);
  util::Rng rng(23);
  MlklOptions opt;
  opt.random_matching = true;
  const Partition pi = multilevel_kl(g, 4, rng, opt);
  EXPECT_TRUE(all_parts_used(g, pi));
  EXPECT_LE(imbalance(g, pi), 0.35);
}

}  // namespace
}  // namespace pnr::part
