// Tests for the persistent repartition state a PNR session carries across
// adaptation rounds: the incrementally weight-patched coarse dual graph
// (mesh::DualWeightDelta + apply_dual_delta), the coarse assignment, and the
// deferred step-metrics contract of pared::Session.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "mesh/dual.hpp"
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

  EXPECT_EQ(counter_value(prof::snapshot(), "session.dual_rebuilds"), 2);
  for (const mesh::ElemIdx e : run.mesh().leaf_elements()) {
    EXPECT_GE(run.mesh().tag(e), 0);
    EXPECT_LT(run.mesh().tag(e), 4);
  }
}

// Steady state of an undisturbed session: the coarse graph is rebuilt once
// (the first step) and only patched afterwards.
TEST(SessionCache, SteadyStateReusesPersistentState) {
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
