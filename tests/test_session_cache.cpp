// Tests for the persistent repartition state a PNR session carries across
// adaptation rounds: the incrementally weight-patched coarse dual graph
// (mesh::DualWeightDelta + apply_dual_delta), the coarse assignment, the
// deferred step-metrics contract of pared::Session, and PNR's step metrics
// read off the coarse graph (checked against a recompute on the fine dual).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "mesh/dual.hpp"
#include "mesh/metrics.hpp"
#include "partition/remap.hpp"
#include "pared/session.hpp"
#include "pared/workloads.hpp"
#include "util/prof.hpp"

namespace pnr::pared {
namespace {

void expect_graphs_equal(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.xadj(), b.xadj());
  EXPECT_EQ(a.adjncy(), b.adjncy());
  EXPECT_EQ(a.vwgt(), b.vwgt());
  EXPECT_EQ(a.adjwgt(), b.adjwgt());
}

std::int64_t counter_value(const prof::Report& report,
                           const std::string& name) {
  for (const auto& c : report.counters)
    if (c.name == name) return c.value;
  return -1;
}

/// True when some recorded span path has `name` as one of its segments.
bool has_span(const prof::Report& report, const std::string& name) {
  for (const auto& span : report.spans)
    if (("/" + span.path + "/").find("/" + name + "/") != std::string::npos)
      return true;
  return false;
}

/// Π^{t-1} exactly as a session sees it before step(): the leaf tags in
/// ascending leaf order, nullopt while any leaf is untagged.
template <typename Mesh>
std::optional<std::vector<part::PartId>> leaf_tags(const Mesh& mesh) {
  std::vector<part::PartId> tags;
  for (const mesh::ElemIdx e : mesh.leaf_elements()) {
    if (mesh.tag(e) < 0) return std::nullopt;
    tags.push_back(mesh.tag(e));
  }
  return tags;
}

std::int64_t count_moves(const std::vector<part::PartId>& a,
                         const std::vector<part::PartId>& b) {
  std::int64_t moves = 0;
  for (std::size_t i = 0; i < a.size(); ++i) moves += a[i] != b[i];
  return moves;
}

/// Every StepReport field recomputed independently of the session, the way
/// a fine-graph strategy measures a step: on the fine dual graph and every
/// leaf. `carried` is the tag vector read before the step.
template <typename Mesh>
StepReport fine_recompute(const Mesh& mesh, part::PartId p,
                          const std::optional<std::vector<part::PartId>>&
                              carried) {
  const mesh::FineDual dual = mesh::fine_dual_graph(mesh);
  std::vector<part::PartId> adopted;
  for (const mesh::ElemIdx e : dual.elems) adopted.push_back(mesh.tag(e));
  const part::Partition next(p, adopted);
  StepReport r;
  r.elements = static_cast<std::int64_t>(dual.elems.size());
  if (carried) {
    const part::Partition prev(p, *carried);
    r.cut_prev = part::cut_size(dual.graph, prev);
    r.migrated = count_moves(*carried, adopted);
    r.migrated_remapped = count_moves(
        *carried,
        part::remap_to_minimize_migration(dual.graph, prev, next).assign);
  }
  r.cut_new = part::cut_size(dual.graph, next);
  r.imbalance = part::imbalance(dual.graph, next);
  r.shared_vertices = mesh::shared_vertices(mesh, dual.elems, adopted);
  return r;
}

void expect_reports_equal(const StepReport& got, const StepReport& want) {
  EXPECT_EQ(got.elements, want.elements);
  EXPECT_EQ(got.cut_prev, want.cut_prev);
  EXPECT_EQ(got.cut_new, want.cut_new);
  EXPECT_EQ(got.shared_vertices, want.shared_vertices);
  EXPECT_EQ(got.migrated, want.migrated);
  EXPECT_EQ(got.migrated_remapped, want.migrated_remapped);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.imbalance),
            std::bit_cast<std::uint64_t>(want.imbalance))
      << got.imbalance << " vs " << want.imbalance;
}

/// How a test drives PNR over a transient run.
enum class Driving {
  kSteadyDeferred,  ///< one session, step() then metrics() (the service)
  kSteadyEager,     ///< one session, step() reports everything
  kFreshEachRound,  ///< a new deferred session per round on carried tags
  kSfcHilbert,      ///< one deferred session on the sfc-hilbert engine
};

/// Step PNR over every round of a small transient run and compare each
/// round's report with the independent fine recompute.
template <typename Run>
void expect_matches_fine_recompute(Run& run, Driving driving,
                                   part::PartId p) {
  using Mesh = std::decay_t<decltype(run.mesh())>;
  const auto make = [&] {
    Session<Mesh> s(Strategy::kPNR, p, 5, {},
                    driving == Driving::kSfcHilbert ? engine::Kind::kSfcHilbert
                                                    : engine::Kind::kMlkl);
    s.set_defer_metrics(driving != Driving::kSteadyEager);
    return s;
  };
  std::optional<Session<Mesh>> session(make());
  int round = 0;
  while (true) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (driving == Driving::kFreshEachRound) session.emplace(make());
    const auto carried = leaf_tags(run.mesh());
    StepReport got = session->step(run.mutable_mesh());
    if (driving != Driving::kSteadyEager) got = session->metrics(run.mesh());
    expect_reports_equal(got, fine_recompute(run.mesh(), p, carried));
    if (run.done()) break;
    run.advance();
    ++round;
  }
}

TransientOptions small_2d() {
  TransientOptions opts;
  opts.steps = 6;
  opts.grid_n = 14;
  return opts;
}

TransientOptions small_3d() {
  TransientOptions opts = TransientRun3D::default_options();
  opts.steps = 4;
  opts.grid_n = 5;
  return opts;
}

void expect_all_match_fine_recompute(Driving driving) {
  for (const part::PartId p : {4, 16}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    {
      SCOPED_TRACE("2D");
      TransientRun run(small_2d());
      expect_matches_fine_recompute(run, driving, p);
    }
    {
      SCOPED_TRACE("3D");
      TransientRun3D run(small_3d());
      expect_matches_fine_recompute(run, driving, p);
    }
  }
}

// PNR reads every StepReport field off the coarse graph. Each must equal an
// independent recompute on the fine dual graph, field by field and round by
// round, whichever way the session is driven.
TEST(CoarseMetrics, SteadyDeferredMatchesFineRecompute) {
  expect_all_match_fine_recompute(Driving::kSteadyDeferred);
}

TEST(CoarseMetrics, SteadyEagerMatchesFineRecompute) {
  expect_all_match_fine_recompute(Driving::kSteadyEager);
}

TEST(CoarseMetrics, FreshSessionEachRoundMatchesFineRecompute) {
  expect_all_match_fine_recompute(Driving::kFreshEachRound);
}

TEST(CoarseMetrics, SfcHilbertEngineMatchesFineRecompute) {
  expect_all_match_fine_recompute(Driving::kSfcHilbert);
}

// A mesh tagged by a fine-graph strategy splits trees between subsets, so
// the coarse graph cannot express Π^{t-1}: the session must fall back to
// the fine dual for that step and still report exact numbers.
TEST(CoarseMetrics, MixedTreeTagsFallBackToFineRecompute) {
  for (const bool defer : {false, true}) {
    SCOPED_TRACE(defer ? "deferred" : "eager");
    TransientRun run(small_2d());
    Session2D fine(Strategy::kMlkl, 4, 2);
    fine.step(run.mutable_mesh());
    run.advance();

    const auto& mesh = run.mesh();
    std::vector<part::PartId> root_tag(
        static_cast<std::size_t>(mesh.num_initial_elements()), -1);
    bool split = false;
    for (const mesh::ElemIdx e : mesh.leaf_elements()) {
      auto& tag = root_tag[static_cast<std::size_t>(mesh.element(e).coarse)];
      split = split || (tag >= 0 && tag != mesh.tag(e));
      tag = mesh.tag(e);
    }
    ASSERT_TRUE(split) << "fine tags left every tree whole; nothing to test";

    Session2D pnr(Strategy::kPNR, 4, 2);
    pnr.set_defer_metrics(defer);
    const auto carried = leaf_tags(mesh);
    StepReport got = pnr.step(run.mutable_mesh());
    if (defer) got = pnr.metrics(mesh);
    expect_reports_equal(got, fine_recompute(mesh, 4, carried));

    // The next step starts from PNR's own whole-tree tags.
    run.advance();
    const auto next_carried = leaf_tags(run.mesh());
    got = pnr.step(run.mutable_mesh());
    if (defer) got = pnr.metrics(run.mesh());
    expect_reports_equal(got, fine_recompute(run.mesh(), 4, next_carried));
  }
}

// The fed coordinator's mode: a steady eager PNR session (and a read after
// it) never builds the fine dual graph. The level-2 audit builds it on
// purpose, so the test only means something below level 2.
TEST(CoarseMetrics, SteadyPnrStepBuildsNoFineDual) {
#ifdef PNR_PROF_DISABLE
  GTEST_SKIP() << "built with -DPNR_PROF=OFF";
#endif
  if (check::kLevel >= 2) GTEST_SKIP() << "the level-2 audit builds it";
  TransientRun run(small_2d());
  Session2D session(Strategy::kPNR, 4, 3);
  session.step(run.mutable_mesh());
  run.advance();

  prof::reset();
  prof::set_enabled(true);
  while (true) {
    session.step(run.mutable_mesh());
    session.metrics(run.mesh());
    if (run.done()) break;
    run.advance();
  }
  prof::set_enabled(false);
  const prof::Report report = prof::snapshot();
  prof::reset();
  EXPECT_TRUE(has_span(report, "session.step"));
  EXPECT_TRUE(has_span(report, "session.metrics"));
  EXPECT_FALSE(has_span(report, "mesh.dual"));
  EXPECT_FALSE(has_span(report, "session.dual_graph"));
}

// The coarse dual graph patched in place by consecutive deltas must equal a
// from-scratch nested_dual_graph after every adaptation — exact CSR arrays,
// not just metrics. 2D transient: refinement and coarsening both occur.
TEST(DualDelta, IncrementalMatchesRebuild2D) {
  TransientOptions opts;
  opts.steps = 8;
  opts.grid_n = 14;
  TransientRun run(opts);
  auto& mesh = run.mutable_mesh();

  // Drain whatever the constructor's initial refinement accumulated; the
  // graph built now is current at that drain's epoch.
  (void)mesh.drain_dual_delta();
  graph::Graph g = mesh::nested_dual_graph(mesh);

  while (!run.done()) {
    run.advance();
    const mesh::DualWeightDelta delta = mesh.drain_dual_delta();
    ASSERT_TRUE(mesh::apply_dual_delta(mesh, delta, g));
    expect_graphs_equal(g, mesh::nested_dual_graph(mesh));
  }
}

TEST(DualDelta, IncrementalMatchesRebuild3D) {
  CornerSeries3D series(4);
  auto& mesh = series.mutable_mesh();
  (void)mesh.drain_dual_delta();
  graph::Graph g = mesh::nested_dual_graph(mesh);

  for (int level = 0; level < 3; ++level) {
    series.advance();
    const mesh::DualWeightDelta delta = mesh.drain_dual_delta();
    ASSERT_TRUE(mesh::apply_dual_delta(mesh, delta, g));
    expect_graphs_equal(g, mesh::nested_dual_graph(mesh));
  }
}

// An unrelated consumer draining the mesh between two session steps breaks
// the epoch chain; the delta then spans a gap the session never saw and the
// only safe reaction is a rebuild. The session must detect this (and keep
// producing valid partitions), which the session.dual_rebuilds counter makes
// observable: one rebuild for the first step, one for the gap.
TEST(DualDelta, EpochGapForcesSessionRebuild) {
  TransientOptions opts;
  opts.steps = 4;
  opts.grid_n = 12;
  TransientRun run(opts);
  Session2D session(Strategy::kPNR, 4, 3);

  prof::reset();
  prof::set_enabled(true);
  session.step(run.mutable_mesh());
  run.advance();
  (void)run.mutable_mesh().drain_dual_delta();  // foreign drain
  session.step(run.mutable_mesh());
  prof::set_enabled(false);

#ifndef PNR_PROF_DISABLE
  // Counters are compiled out under -DPNR_PROF=OFF; the tags still count.
  EXPECT_EQ(counter_value(prof::snapshot(), "session.dual_rebuilds"), 2);
#endif
  for (const mesh::ElemIdx e : run.mesh().leaf_elements()) {
    EXPECT_GE(run.mesh().tag(e), 0);
    EXPECT_LT(run.mesh().tag(e), 4);
  }
}

// Steady state of an undisturbed session: the coarse graph is rebuilt once
// (the first step) and only patched afterwards.
TEST(SessionCache, SteadyStateReusesPersistentState) {
#ifdef PNR_PROF_DISABLE
  GTEST_SKIP() << "built with -DPNR_PROF=OFF";
#endif
  TransientOptions opts;
  opts.steps = 12;
  opts.grid_n = 20;
  TransientRun run(opts);
  Session2D session(Strategy::kPNR, 4, 3);

  prof::reset();
  prof::set_enabled(true);
  session.step(run.mutable_mesh());
  while (!run.done()) {
    run.advance();
    session.step(run.mutable_mesh());
  }
  prof::set_enabled(false);

  const prof::Report report = prof::snapshot();
  EXPECT_EQ(counter_value(report, "session.dual_rebuilds"), 1);
}

// Two sessions over identical workloads must adopt identical assignments at
// every step — the state a session carries across rounds (the coarse dual
// graph and the coarse partition) is deterministic, not just statistically
// similar.
TEST(SessionCache, CachedPathIsDeterministic) {
  TransientOptions opts;
  opts.steps = 5;
  opts.grid_n = 14;
  TransientRun run_a(opts), run_b(opts);
  Session2D a(Strategy::kPNR, 4, 11);
  Session2D b(Strategy::kPNR, 4, 11);

  a.step(run_a.mutable_mesh());
  b.step(run_b.mutable_mesh());
  while (!run_a.done()) {
    run_a.advance();
    run_b.advance();
    const StepReport ra = a.step(run_a.mutable_mesh());
    const StepReport rb = b.step(run_b.mutable_mesh());
    EXPECT_EQ(ra.cut_new, rb.cut_new);
    EXPECT_EQ(ra.migrated, rb.migrated);
    for (const mesh::ElemIdx e : run_a.mesh().leaf_elements())
      ASSERT_EQ(run_a.mesh().tag(e), run_b.mesh().tag(e));
  }
}

// Deferred metrics are an evaluation-order change, not an approximation:
// every field metrics() settles must equal what an eager session reported,
// and metrics_current() must flip exactly at step/adapt boundaries.
TEST(SessionCache, DeferredMetricsMatchEager) {
  TransientOptions opts;
  opts.steps = 5;
  opts.grid_n = 12;
  TransientRun run_a(opts), run_b(opts);
  Session2D eager(Strategy::kPNR, 4, 9);
  Session2D deferred(Strategy::kPNR, 4, 9);
  deferred.set_defer_metrics(true);

  EXPECT_FALSE(deferred.metrics_current(run_b.mesh()));
  auto compare_step = [&] {
    const StepReport ra = eager.step(run_a.mutable_mesh());
    deferred.step(run_b.mutable_mesh());
    ASSERT_TRUE(deferred.metrics_current(run_b.mesh()));
    const StepReport rb = deferred.metrics(run_b.mutable_mesh());
    EXPECT_EQ(ra.elements, rb.elements);
    EXPECT_EQ(ra.cut_prev, rb.cut_prev);
    EXPECT_EQ(ra.cut_new, rb.cut_new);
    EXPECT_EQ(ra.shared_vertices, rb.shared_vertices);
    EXPECT_EQ(ra.migrated, rb.migrated);
    EXPECT_EQ(ra.migrated_remapped, rb.migrated_remapped);
    EXPECT_DOUBLE_EQ(ra.imbalance, rb.imbalance);
  };

  compare_step();
  while (!run_a.done()) {
    run_a.advance();
    run_b.advance();
    EXPECT_FALSE(deferred.metrics_current(run_b.mesh()));
    compare_step();
  }
}

}  // namespace
}  // namespace pnr::pared
