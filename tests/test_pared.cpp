// Tests for the PARED driver layer: workload series (corner, transient) and
// the strategy sessions that the benches are built on.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "mesh/generate.hpp"
#include "pared/driver.hpp"
#include "pared/session.hpp"
#include "pared/workloads.hpp"
#include "mesh_checks.hpp"

namespace pnr::pared {
namespace {

TEST(CornerSeries, GrowsMonotonically) {
  CornerSeries2D series(12);
  auto prev = series.mesh().num_leaves();
  EXPECT_EQ(series.level(), 0);
  for (int level = 1; level <= 4; ++level) {
    series.advance();
    EXPECT_EQ(series.level(), level);
    EXPECT_GE(series.mesh().num_leaves(), prev);
    prev = series.mesh().num_leaves();
    EXPECT_TRUE(series.mesh().check_invariants().empty());
  }
  EXPECT_GT(prev, 2 * 12 * 12);  // real growth happened
}

TEST(CornerSeries, RefinementConcentratesAtTheCorner) {
  CornerSeries2D series(12);
  for (int level = 0; level < 4; ++level) series.advance();
  const auto& mesh = series.mesh();
  std::int64_t corner = 0, far = 0;
  for (const mesh::ElemIdx e : mesh.leaf_elements()) {
    const auto c = mesh.centroid(e);
    if (c.x > 0.5 && c.y > 0.5) ++corner;
    if (c.x < -0.5 && c.y < -0.5) ++far;
  }
  EXPECT_GT(corner, 3 * far);
}

TEST(CornerSeries3D, GrowsAndStaysValid) {
  CornerSeries3D series(4);
  const auto initial = series.mesh().num_leaves();
  for (int level = 0; level < 3; ++level) series.advance();
  EXPECT_GT(series.mesh().num_leaves(), initial);
  EXPECT_TRUE(series.mesh().check_invariants().empty());
}

TEST(Transient, TracksThePeak) {
  TransientOptions opts;
  opts.steps = 10;
  opts.grid_n = 16;
  TransientRun run(opts);
  EXPECT_FALSE(run.done());

  auto refined_near_peak = [&](double t) {
    const auto& mesh = run.mesh();
    std::int64_t near = 0, far = 0;
    for (const mesh::ElemIdx e : mesh.leaf_elements()) {
      const auto c = mesh.centroid(e);
      const double dx = c.x + t, dy = c.y + t;
      if (dx * dx + dy * dy < 0.04) ++near;
      const double fx = c.x - t, fy = c.y - t;  // mirror point
      if (fx * fx + fy * fy < 0.04 && std::abs(t) > 0.2) ++far;
    }
    return std::make_pair(near, far);
  };

  while (!run.done()) {
    const auto info = run.advance();
    EXPECT_TRUE(run.mesh().check_invariants().empty());
    EXPECT_EQ(info.step, run.step());
  }
  EXPECT_NEAR(run.time(), 0.5, 1e-12);
  const auto [near, far] = refined_near_peak(0.5);
  EXPECT_GT(near, far);  // refinement follows the disturbance
}

TEST(Transient, CoarseningKeepsSizeBounded) {
  TransientOptions opts;
  opts.steps = 12;
  opts.grid_n = 16;
  TransientRun run(opts);
  const auto initial = run.mesh().num_leaves();
  std::int64_t max_leaves = initial;
  std::int64_t merges = 0;
  while (!run.done()) {
    const auto info = run.advance();
    merges += info.merges;
    max_leaves = std::max(max_leaves, run.mesh().num_leaves());
  }
  EXPECT_GT(merges, 0);  // the wake actually coarsens
  EXPECT_LT(max_leaves, 3 * initial);  // no runaway growth
}

TEST(Strategy, ParseAndNameRoundTrip) {
  for (const char* name : {"rsb", "rsb-remap", "mlkl", "mlkl-remap", "pnr",
                           "diffusion", "ml-diffusion"}) {
    const auto s = parse_strategy(name);
    ASSERT_TRUE(s.has_value()) << name;
    EXPECT_NE(std::string(strategy_name(*s)), "?");
  }
  EXPECT_FALSE(parse_strategy("bogus").has_value());
}

class SessionStrategies : public ::testing::TestWithParam<Strategy> {};

TEST_P(SessionStrategies, StepReportsSaneNumbers) {
  TransientOptions opts;
  opts.steps = 4;
  opts.grid_n = 12;
  TransientRun run(opts);
  Session2D session(GetParam(), 4, 3);

  auto first = session.step(run.mutable_mesh());
  EXPECT_GT(first.elements, 0);
  EXPECT_GT(first.shared_vertices, 0);
  EXPECT_EQ(first.migrated, 0);  // no previous assignment

  while (!run.done()) {
    run.advance();
    const auto report = session.step(run.mutable_mesh());
    EXPECT_EQ(report.elements, run.mesh().num_leaves());
    EXPECT_GE(report.migrated, 0);
    EXPECT_LE(report.migrated, report.elements);
    EXPECT_LE(report.migrated_remapped, report.migrated);
    EXPECT_GE(report.cut_new, 0);
    EXPECT_GE(report.imbalance, 0.0);
    EXPECT_LE(report.imbalance, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SessionStrategies,
                         ::testing::Values(Strategy::kRSB, Strategy::kRsbRemap,
                                           Strategy::kMlkl,
                                           Strategy::kMlklRemap,
                                           Strategy::kPNR,
                                           Strategy::kDiffusion,
                                           Strategy::kMlDiffusion));

TEST(Session, PnrMovesLessThanRsb) {
  TransientOptions opts;
  opts.steps = 8;
  opts.grid_n = 20;
  TransientRun run_a(opts), run_b(opts);
  Session2D rsb(Strategy::kRSB, 4, 5);
  Session2D pnr(Strategy::kPNR, 4, 5);
  rsb.step(run_a.mutable_mesh());
  pnr.step(run_b.mutable_mesh());

  std::int64_t rsb_moved = 0, pnr_moved = 0;
  while (!run_a.done()) {
    run_a.advance();
    run_b.advance();
    rsb_moved += rsb.step(run_a.mutable_mesh()).migrated;
    pnr_moved += pnr.step(run_b.mutable_mesh()).migrated;
  }
  EXPECT_LT(pnr_moved, rsb_moved / 2);  // the paper's headline result
}

TEST(Driver, RunsFullRoundsWithTimingsAndSolve) {
  DriverOptions opts;
  opts.procs = 4;
  opts.strategy = Strategy::kPNR;
  opts.solve = true;
  opts.solve_tol = 1e-8;
  AdaptiveDriver2D driver(mesh::structured_tri_mesh(12, 12, 0.2, 5), opts);

  const auto field = fem::corner_problem_2d();
  double prev_error = 1e300;
  for (int round = 0; round < 3; ++round) {
    fem::MarkOptions mark;
    mark.refine_threshold = 0.02 * std::pow(0.5, round);
    mark.max_level = round + 3;
    const auto report = driver.step(field, mark);
    EXPECT_GE(report.bisections, 0);
    EXPECT_GT(report.partition.elements, 0);
    EXPECT_GE(report.adapt_seconds, 0.0);
    EXPECT_GT(report.solve_seconds, 0.0);
    EXPECT_GT(report.cg_iterations, 0);
    EXPECT_LT(report.solve_error, prev_error * 1.5);  // roughly improving
    prev_error = report.solve_error;
  }
  EXPECT_TRUE(driver.mesh().check_invariants().empty());
}

TEST(Driver, Works3D) {
  DriverOptions opts;
  opts.procs = 4;
  opts.strategy = Strategy::kMlkl;
  AdaptiveDriver3D driver(mesh::structured_tet_mesh(3, 3, 3, 0.1, 5), opts);
  const auto field = fem::corner_problem_3d();
  fem::MarkOptions mark;
  mark.refine_threshold = 0.01;
  mark.max_level = 3;
  const auto report = driver.step(field, mark);
  EXPECT_GT(report.partition.elements, 0);
  EXPECT_GT(report.partition.shared_vertices, 0);
}

TEST(MlDiffusion, RebalancesWithBoundedMigration) {
  // Unbalanced adapted mesh: multilevel diffusion must restore balance
  // moving roughly the excess weight, not the whole mesh.
  TransientOptions opts;
  opts.steps = 4;
  opts.grid_n = 20;
  TransientRun run(opts);
  const auto dual = mesh::fine_dual_graph(run.mesh());
  util::Rng rng(3);
  auto pi = part::multilevel_kl(dual.graph, 4, rng);
  run.advance();
  run.advance();
  const auto dual2 = mesh::fine_dual_graph(run.mesh());
  // Carry by tags is the session's job; here simply re-evaluate balance on
  // a fresh graph of the same size class via a synthetic skew.
  auto skewed = part::multilevel_kl(dual2.graph, 4, rng);
  for (std::size_t v = 0; v < skewed.assign.size() / 5; ++v)
    skewed.assign[v] = 0;  // overload part 0
  const auto before = part::imbalance(dual2.graph, skewed);
  const auto result = part::multilevel_diffusion(dual2.graph, skewed, rng);
  EXPECT_LT(part::imbalance(dual2.graph, skewed), before);
  EXPECT_LE(part::imbalance(dual2.graph, skewed), 0.06);
  EXPECT_GT(result.moves, 0);
  EXPECT_LT(result.moves,
            static_cast<std::int64_t>(skewed.assign.size()) / 2);
}

TEST(Session, TagsCarryAssignmentAcrossAdaptation) {
  TransientOptions opts;
  opts.steps = 3;
  opts.grid_n = 12;
  TransientRun run(opts);
  Session2D session(Strategy::kPNR, 4, 7);
  session.step(run.mutable_mesh());
  // After adopting, every leaf must carry a valid tag; after adaptation the
  // new leaves inherit their ancestors' tags.
  run.advance();
  for (const mesh::ElemIdx e : run.mesh().leaf_elements()) {
    EXPECT_GE(run.mesh().tag(e), 0);
    EXPECT_LT(run.mesh().tag(e), 4);
  }
}

// ---- workload pins ----------------------------------------------------------

// Digest a transient run: its pre-adapted mesh, then each advance()'s
// StepInfo and the mesh it leaves behind. A new digest means the workload's
// marking, refine/coarsen order or time stepping changed.
template <typename Run>
std::uint64_t transient_digest(const TransientOptions& options) {
  Run run(options);
  std::uint64_t h = mesh::slot_digest(run.mesh(), util::kFnvSeed);
  const auto mix = [&h](auto v) { h = util::fnv1a_value(v, h); };
  while (!run.done()) {
    const auto info = run.advance();
    mix(info.step);
    mix(std::bit_cast<std::uint64_t>(info.t));
    mix(info.bisections);
    mix(info.merges);
    h = mesh::slot_digest(run.mesh(), h);
  }
  EXPECT_TRUE(run.mesh().check_invariants().empty());
  return h;
}

/// The corner-series counterpart: each level's bisection count and mesh.
template <typename Series>
std::uint64_t corner_digest(int grid_n, int levels) {
  Series series(grid_n);
  std::uint64_t h = mesh::slot_digest(series.mesh(), util::kFnvSeed);
  const auto mix = [&h](auto v) { h = util::fnv1a_value(v, h); };
  for (int level = 0; level < levels; ++level) {
    mix(series.advance());
    mix(series.level());
    h = mesh::slot_digest(series.mesh(), h);
  }
  EXPECT_TRUE(series.mesh().check_invariants().empty());
  return h;
}

TEST(WorkloadPin, Transient2D) {
  TransientOptions opts;
  opts.steps = 6;
  opts.grid_n = 10;
  opts.max_level = 4;
  EXPECT_EQ(transient_digest<TransientRun>(opts), 11300990925978639471ull);
}

TEST(WorkloadPin, Transient3D) {
  TransientOptions opts = TransientRun3D::default_options();
  opts.steps = 4;
  opts.grid_n = 4;
  opts.max_level = 3;
  EXPECT_EQ(transient_digest<TransientRun3D>(opts), 2750999718617649375ull);
}

TEST(WorkloadPin, Corner2D) {
  EXPECT_EQ(corner_digest<CornerSeries2D>(12, 4), 3126741392808873491ull);
}

TEST(WorkloadPin, Corner3D) {
  EXPECT_EQ(corner_digest<CornerSeries3D>(5, 3), 1185834951634776489ull);
}

}  // namespace
}  // namespace pnr::pared
