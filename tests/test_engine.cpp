// Tests for pnr::engine — the pluggable repartitioner backends: name/wire
// round-trips, SFC key orders and weight-balanced curve splits, parallel
// RIB, the MLKL wrapper's bit-parity with core::Pnr, the subsystem's
// thread-count determinism contract, and engine selection through
// pared::Session.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/pnr.hpp"
#include "engine/engine.hpp"
#include "engine/rib.hpp"
#include "engine/sfc.hpp"
#include "exec/pool.hpp"
#include "graph/builder.hpp"
#include "mesh/dual.hpp"
#include "pared/session.hpp"
#include "pared/workloads.hpp"
#include "util/rng.hpp"

namespace pnr::engine {
namespace {

/// Grid graph plus matching cell-center coordinates — the shape of a coarse
/// dual graph with centroids, but fully hand-controlled.
struct Geo {
  graph::Graph g;
  std::vector<double> coords;  // n×2
};

Geo grid(int nx, int ny, graph::Weight corner_weight = 1) {
  graph::GraphBuilder b(nx * ny);
  std::vector<double> coords;
  coords.reserve(static_cast<std::size_t>(nx) * ny * 2);
  auto id = [&](int i, int j) { return static_cast<graph::VertexId>(j * nx + i); };
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      if (i + 1 < nx) b.add_edge(id(i, j), id(i + 1, j));
      if (j + 1 < ny) b.add_edge(id(i, j), id(i, j + 1));
      if (i >= nx - 3 && j >= ny - 3) b.set_vertex_weight(id(i, j), corner_weight);
      coords.push_back(i + 0.5);
      coords.push_back(j + 0.5);
    }
  return {b.build(), std::move(coords)};
}

Input geometric_input(const Geo& geo, part::PartId parts,
                      const part::Partition* previous = nullptr) {
  Input in;
  in.graph = &geo.g;
  in.coords = geo.coords;
  in.dim = 2;
  in.previous = previous;
  in.parts = parts;
  return in;
}

/// Curve order implied by the keys: ids sorted by (key, id) — the order
/// sfc_split consumes.
std::vector<graph::VertexId> curve_order(const std::vector<std::uint64_t>& keys) {
  std::vector<graph::VertexId> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<graph::VertexId>(i);
  std::sort(order.begin(), order.end(),
            [&](graph::VertexId a, graph::VertexId b) {
              const auto ka = keys[static_cast<std::size_t>(a)];
              const auto kb = keys[static_cast<std::size_t>(b)];
              return ka != kb ? ka < kb : a < b;
            });
  return order;
}

// ---- names and wire encoding ------------------------------------------------

TEST(EngineKind, NameParseRoundTripsForEveryKind) {
  for (int i = 0; i < kNumKinds; ++i) {
    const auto k = static_cast<Kind>(i);
    Kind out = Kind::kMlkl;
    ASSERT_TRUE(parse_kind(kind_name(k), out)) << kind_name(k);
    EXPECT_EQ(out, k);
    EXPECT_EQ(repartitioner(k).kind(), k);
  }
  Kind out = Kind::kRib;
  EXPECT_FALSE(parse_kind("nope", out));
  EXPECT_EQ(out, Kind::kRib);  // untouched on failure
  EXPECT_FALSE(parse_kind("", out));
  EXPECT_FALSE(parse_kind("MLKL", out));  // tokens are case-sensitive
}

TEST(EngineKind, WireValidityMatchesTheRegisteredRange) {
  for (int i = 0; i < kNumKinds; ++i)
    EXPECT_TRUE(valid_kind(static_cast<std::uint8_t>(i)));
  EXPECT_FALSE(valid_kind(kNumKinds));
  EXPECT_FALSE(valid_kind(0xff));  // the "server default" sentinel
}

TEST(EngineKind, OnlyGeometricEnginesNeedCoords) {
  EXPECT_FALSE(repartitioner(Kind::kMlkl).needs_coords());
  EXPECT_TRUE(repartitioner(Kind::kSfcMorton).needs_coords());
  EXPECT_TRUE(repartitioner(Kind::kSfcHilbert).needs_coords());
  EXPECT_TRUE(repartitioner(Kind::kRib).needs_coords());
}

// ---- SFC keys ---------------------------------------------------------------

TEST(EngineSfc, MortonKeysAreMonotoneAlongOneAxis) {
  // Points on a degenerate (constant-y) line: quantization collapses y to
  // one cell, so the Morton order must reduce to the x order.
  std::vector<double> coords;
  for (int i = 0; i < 17; ++i) {
    coords.push_back(static_cast<double>(i));
    coords.push_back(3.0);
  }
  const auto keys = sfc_keys(coords, 17, 2, /*hilbert=*/false);
  ASSERT_EQ(keys.size(), 17u);
  for (std::size_t i = 1; i < keys.size(); ++i)
    EXPECT_LT(keys[i - 1], keys[i]) << "i=" << i;
}

TEST(EngineSfc, HilbertCurveVisitsGridNeighborsConsecutively) {
  // The defining locality property on a 2^k×2^k grid: consecutive curve
  // positions are grid neighbors (Manhattan distance exactly 1). Morton
  // violates this at every quadrant seam, Hilbert never does.
  const int n = 8;
  std::vector<double> coords;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      coords.push_back(static_cast<double>(i));
      coords.push_back(static_cast<double>(j));
    }
  const auto keys = sfc_keys(coords, static_cast<std::size_t>(n) * n, 2,
                             /*hilbert=*/true);
  const auto order = curve_order(keys);
  for (std::size_t s = 1; s < order.size(); ++s) {
    const int a = order[s - 1], b = order[s];
    const int dist = std::abs(a % n - b % n) + std::abs(a / n - b / n);
    EXPECT_EQ(dist, 1) << "jump between curve positions " << s - 1 << " and "
                       << s;
  }
}

TEST(EngineSfc, KeysAreDistinctForDistinctCellsAndEqualForCoincidentPoints) {
  for (const bool hilbert : {false, true}) {
    const Geo geo = grid(9, 7);
    auto keys = sfc_keys(geo.coords, 63, 2, hilbert);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << (hilbert ? "hilbert" : "morton");

    const std::vector<double> twice = {1.5, 2.5, 1.5, 2.5};
    const auto dup = sfc_keys(twice, 2, 2, hilbert);
    EXPECT_EQ(dup[0], dup[1]);
  }
}

TEST(EngineSfc, DegenerateBoxesAndThreeDimensionsAreHandled) {
  // All points coincident: every key identical, no division blowups.
  const std::vector<double> same = {2.0, 2.0, 2.0, 2.0, 2.0, 2.0};
  const auto k2 = sfc_keys(same, 3, 2, /*hilbert=*/true);
  EXPECT_EQ(k2[0], k2[1]);
  EXPECT_EQ(k2[1], k2[2]);

  // 3D line with two degenerate axes: Morton reduces to the 1D order;
  // Hilbert wanders (the curve has no monotone axis) but must still give
  // distinct cells distinct keys.
  std::vector<double> line;
  for (int i = 0; i < 9; ++i) {
    line.push_back(0.0);
    line.push_back(static_cast<double>(i));
    line.push_back(1.0);
  }
  const auto morton = sfc_keys(line, 9, 3, /*hilbert=*/false);
  for (std::size_t i = 1; i < morton.size(); ++i)
    EXPECT_LT(morton[i - 1], morton[i]);
  auto hilbert3 = sfc_keys(line, 9, 3, /*hilbert=*/true);
  std::sort(hilbert3.begin(), hilbert3.end());
  EXPECT_EQ(std::adjacent_find(hilbert3.begin(), hilbert3.end()),
            hilbert3.end());
}

// ---- SFC splits -------------------------------------------------------------

TEST(EngineSfc, SplitIsContiguousBalancedAndUsesAllParts) {
  const Geo geo = grid(12, 12);
  const auto keys = sfc_keys(geo.coords, 144, 2, /*hilbert=*/true);
  const auto pi = sfc_split(geo.g, keys, 8);
  ASSERT_TRUE(pi.valid_for(geo.g));
  EXPECT_TRUE(part::all_parts_used(geo.g, pi));
  EXPECT_LE(part::imbalance(geo.g, pi), 0.06);
  // Contiguity in curve order: parts appear as one run each.
  const auto order = curve_order(keys);
  for (std::size_t s = 1; s < order.size(); ++s) {
    const auto prev = pi.assign[static_cast<std::size_t>(order[s - 1])];
    const auto cur = pi.assign[static_cast<std::size_t>(order[s])];
    EXPECT_TRUE(cur == prev || cur == prev + 1)
        << "part sequence not contiguous at curve position " << s;
  }
}

TEST(EngineSfc, SplitLeavesOneVertexPerPartUnderHeavySkew) {
  // One huge vertex up front would swallow every quota; the split must
  // still hand one vertex to each remaining part.
  graph::GraphBuilder b(5);
  for (graph::VertexId v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1);
  b.set_vertex_weight(0, 1000);
  const graph::Graph g = b.build();
  const std::vector<std::uint64_t> keys = {0, 1, 2, 3, 4};
  const auto pi = sfc_split(g, keys, 5);
  ASSERT_TRUE(pi.valid_for(g));
  for (std::size_t v = 0; v < 5; ++v)
    EXPECT_EQ(pi.assign[v], static_cast<part::PartId>(v));
}

TEST(EngineSfc, BoundaryHysteresisAbsorbsSubToleranceWeightJitter) {
  // Uniform weight 10, then +40 on the curve's first vertex: the greedy
  // quota boundaries shift (migrating vertices), but with hysteresis the
  // previous boundaries are within slack and stay put.
  auto build = [](graph::Weight head_extra) {
    graph::GraphBuilder b(144);
    auto id = [](int i, int j) { return static_cast<graph::VertexId>(j * 12 + i); };
    for (int j = 0; j < 12; ++j)
      for (int i = 0; i < 12; ++i) {
        if (i + 1 < 12) b.add_edge(id(i, j), id(i + 1, j));
        if (j + 1 < 12) b.add_edge(id(i, j), id(i, j + 1));
        b.set_vertex_weight(id(i, j), 10);
      }
    b.set_vertex_weight(0, 10 + head_extra);
    return b.build();
  };
  const Geo geo = grid(12, 12);
  const auto keys = sfc_keys(geo.coords, 144, 2, /*hilbert=*/true);
  // Vertex 0 is a bbox corner, so it sits at one end of the Hilbert curve;
  // its extra weight shifts every downstream quota.
  const graph::Graph before = build(0);
  const graph::Graph after = build(40);
  const auto pi1 = sfc_split(before, keys, 4);

  const auto greedy = sfc_split(after, keys, 4, &pi1, /*tol=*/0.0);
  EXPECT_NE(greedy.assign, pi1.assign);  // quota boundaries moved

  const auto hyst = sfc_split(after, keys, 4, &pi1, /*tol=*/0.1);
  EXPECT_EQ(hyst.assign, pi1.assign);  // jitter absorbed: zero migration
  EXPECT_LE(part::imbalance(after, hyst), 0.2);
}

TEST(EngineSfc, RepeatedRunsOnAStableCurveMigrateNothing) {
  const Geo geo = grid(12, 12, 6);
  const auto& sfc = repartitioner(Kind::kSfcHilbert);
  core::RepartitionStats stats;
  const auto first = sfc.run(geometric_input(geo, 6), &stats);
  ASSERT_TRUE(first.valid_for(geo.g));
  EXPECT_TRUE(part::all_parts_used(geo.g, first));
  EXPECT_GT(stats.cut_after, 0);

  // Same weights, same curve, previous = the first answer: the remap must
  // relabel the fresh segments straight back onto Π^{t-1}.
  const auto second = sfc.run(geometric_input(geo, 6, &first), &stats);
  EXPECT_EQ(second.assign, first.assign);
  EXPECT_EQ(stats.migrate, 0);
  EXPECT_EQ(stats.cut_before, stats.cut_after);
}

// ---- RIB --------------------------------------------------------------------

TEST(EngineRib, BisectsIntoBalancedPartsIncludingNonPowersOfTwo) {
  const Geo geo = grid(12, 12);
  const auto& rib = repartitioner(Kind::kRib);
  for (const part::PartId parts : {2, 3, 4, 5, 8}) {
    core::RepartitionStats stats;
    const auto pi = rib.run(geometric_input(geo, parts), &stats);
    ASSERT_TRUE(pi.valid_for(geo.g));
    EXPECT_TRUE(part::all_parts_used(geo.g, pi)) << "parts=" << parts;
    EXPECT_LE(part::imbalance(geo.g, pi), 0.07) << "parts=" << parts;
    EXPECT_GT(stats.levels, 0);
  }
}

TEST(EngineRib, RemapsAgainstThePreviousPartition) {
  const Geo geo = grid(10, 10, 4);
  const auto& rib = repartitioner(Kind::kRib);
  core::RepartitionStats stats;
  const auto first = rib.run(geometric_input(geo, 4), &stats);
  const auto second = rib.run(geometric_input(geo, 4, &first), &stats);
  // Identical geometry and weights: the bisection tree is identical, so
  // after the remap nothing moves.
  EXPECT_EQ(second.assign, first.assign);
  EXPECT_EQ(stats.migrate, 0);
}

// ---- MLKL wrapper -----------------------------------------------------------

TEST(EngineMlkl, WrapperIsBitIdenticalToDrivingCorePnr) {
  const Geo geo = grid(12, 12, 12);
  const part::PartId parts = 4;

  util::Rng rng_direct(17);
  const core::Pnr pnr(parts);
  const auto direct0 = pnr.initial_partition(geo.g, rng_direct);
  core::RepartitionStats direct_stats;
  const auto direct1 =
      pnr.repartition(geo.g, direct0, rng_direct, &direct_stats);

  util::Rng rng_engine(17);
  Input in;
  in.graph = &geo.g;
  in.parts = parts;
  in.rng = &rng_engine;
  const auto& mlkl = repartitioner(Kind::kMlkl);
  core::RepartitionStats stats;
  const auto wrapped0 = mlkl.run(in, &stats);
  EXPECT_EQ(wrapped0.assign, direct0.assign);
  EXPECT_EQ(stats.cut_after, part::cut_size(geo.g, direct0));

  in.previous = &wrapped0;
  const auto wrapped1 = mlkl.run(in, &stats);
  EXPECT_EQ(wrapped1.assign, direct1.assign);
  EXPECT_EQ(stats.cut_after, direct_stats.cut_after);
  EXPECT_EQ(stats.migrate, direct_stats.migrate);
}

// ---- determinism contract ---------------------------------------------------

/// Restores the default pool width on scope exit (mirrors test_exec.cpp).
class DefaultThreadsGuard {
 public:
  DefaultThreadsGuard() : saved_(exec::default_pool().num_threads()) {}
  ~DefaultThreadsGuard() { exec::set_default_threads(saved_); }

 private:
  int saved_;
};

TEST(EngineDeterminism, EveryEngineIsByteIdenticalAcrossThreadCounts) {
  // A real coarse dual graph + centroids from an adapted transient mesh —
  // skewed leaf weights, not a synthetic grid.
  pared::TransientOptions opts;
  opts.steps = 8;
  opts.grid_n = 14;
  pared::TransientRun run(opts);
  for (int i = 0; i < 3; ++i) run.advance();
  const graph::Graph g = mesh::nested_dual_graph(run.mesh());
  const std::vector<double> coords = mesh::coarse_centroids(run.mesh());
  ASSERT_EQ(coords.size(), static_cast<std::size_t>(g.num_vertices()) * 2);

  DefaultThreadsGuard guard;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    const auto& eng = repartitioner(static_cast<Kind>(kind));
    std::vector<part::Partition> first_pass, second_pass;
    for (const int threads : {1, 2, 4, 8}) {
      exec::set_default_threads(threads);
      util::Rng rng(23);
      Input in;
      in.graph = &g;
      in.coords = coords;
      in.dim = 2;
      in.parts = 6;
      in.rng = &rng;
      first_pass.push_back(eng.run(in, nullptr));
      in.previous = &first_pass.back();
      second_pass.push_back(eng.run(in, nullptr));
    }
    for (std::size_t i = 1; i < first_pass.size(); ++i) {
      EXPECT_EQ(first_pass[i].assign, first_pass[0].assign)
          << kind_name(static_cast<Kind>(kind)) << " initial, sweep " << i;
      EXPECT_EQ(second_pass[i].assign, second_pass[0].assign)
          << kind_name(static_cast<Kind>(kind)) << " repartition, sweep " << i;
    }
  }
}

// ---- Session integration ----------------------------------------------------

TEST(EngineSession, GeometricEnginesDriveAPnrSessionEndToEnd) {
  for (const Kind kind : {Kind::kSfcMorton, Kind::kSfcHilbert, Kind::kRib}) {
    pared::TransientOptions opts;
    opts.steps = 6;
    opts.grid_n = 12;
    pared::TransientRun run(opts);
    pared::Session2D session(pared::Strategy::kPNR, 4, 3, {}, kind);
    EXPECT_EQ(session.engine(), kind);

    pared::StepReport report = session.step(run.mutable_mesh());
    while (!run.done()) {
      run.advance();
      report = session.step(run.mutable_mesh());
    }
    EXPECT_GT(report.elements, 0);
    EXPECT_LE(report.imbalance, 0.35) << kind_name(kind);
    for (const mesh::ElemIdx e : run.mesh().leaf_elements()) {
      ASSERT_GE(run.mesh().tag(e), 0);
      ASSERT_LT(run.mesh().tag(e), 4);
    }
  }
}

// A kPNR session on the mlkl engine is a loop around the one planner call:
// feeding the same coarse graphs through engine::repartitioner by hand, with
// the session's seed, gives the session's coarse assignment at every step.
TEST(EngineSession, MlklSessionMatchesAHandLoopOverTheEngine) {
  pared::TransientOptions opts;
  opts.steps = 12;
  opts.grid_n = 20;
  pared::TransientRun run(opts);
  pared::Session2D session(pared::Strategy::kPNR, 4, 3, {}, Kind::kMlkl);

  const auto& mlkl = repartitioner(Kind::kMlkl);
  util::Rng rng(3);
  part::Partition hand;
  int steps = 0;
  while (true) {
    const graph::Graph g = mesh::nested_dual_graph(run.mesh());
    session.step(run.mutable_mesh());
    Input in;
    in.graph = &g;
    in.previous = steps == 0 ? nullptr : &hand;
    in.parts = 4;
    in.rng = &rng;
    hand = mlkl.run(in, nullptr);
    ASSERT_EQ(session.coarse_assignment(), hand.assign) << "step " << steps;
    ++steps;
    if (run.done()) break;
    run.advance();
  }
  EXPECT_GE(steps, 5);
}

TEST(EngineSession, SameEngineSessionsAreDeterministic) {
  pared::TransientOptions opts;
  opts.steps = 5;
  opts.grid_n = 12;
  pared::TransientRun run_a(opts), run_b(opts);
  pared::Session2D a(pared::Strategy::kPNR, 4, 11, {}, Kind::kSfcHilbert);
  pared::Session2D b(pared::Strategy::kPNR, 4, 11, {}, Kind::kSfcHilbert);
  while (!run_a.done()) {
    run_a.advance();
    run_b.advance();
    a.step(run_a.mutable_mesh());
    b.step(run_b.mutable_mesh());
    const auto leaves = run_a.mesh().leaf_elements();
    const auto leaves_b = run_b.mesh().leaf_elements();
    ASSERT_EQ(leaves.size(), leaves_b.size());
    for (std::size_t i = 0; i < leaves.size(); ++i)
      ASSERT_EQ(run_a.mesh().tag(leaves[i]), run_b.mesh().tag(leaves_b[i]));
  }
}

}  // namespace
}  // namespace pnr::engine
