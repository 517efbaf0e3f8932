// google-benchmark microbenchmarks of the partitioning kernels: how long do
// Multilevel-KL, RSB, the inertial bisection, PNR's repartition and the
// supporting pieces (dual graph extraction, refinement, Hungarian remap)
// take at realistic sizes? These timings back the paper's claim that PNR's
// coordinator step is cheap relative to fine-mesh partitioning.

#include <benchmark/benchmark.h>

#include "core/pnr.hpp"
#include "fem/estimator.hpp"
#include "mesh/dual.hpp"
#include "mesh/generate.hpp"
#include "pared/workloads.hpp"
#include "partition/inertial.hpp"
#include "partition/mlkl.hpp"
#include "partition/remap.hpp"
#include "partition/rsb.hpp"

using namespace pnr;

namespace {

/// Shared adapted mesh per grid size (built once; benches only read it).
const mesh::TriMesh& adapted_mesh(int grid) {
  static std::map<int, mesh::TriMesh> cache;
  auto it = cache.find(grid);
  if (it == cache.end()) {
    pared::CornerSeries2D series(grid);
    for (int l = 0; l < 4; ++l) series.advance();
    it = cache.emplace(grid, series.mesh()).first;
  }
  return it->second;
}

void BM_FineDualGraph(benchmark::State& state) {
  const auto& mesh = adapted_mesh(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto dual = mesh::fine_dual_graph(mesh);
    benchmark::DoNotOptimize(dual.graph.num_edges());
  }
  state.SetLabel(std::to_string(mesh.num_leaves()) + " elems");
}
BENCHMARK(BM_FineDualGraph)->Arg(24)->Arg(40);

void BM_NestedDualGraph(benchmark::State& state) {
  const auto& mesh = adapted_mesh(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto g = mesh::nested_dual_graph(mesh);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetLabel(std::to_string(mesh.num_leaves()) + " elems");
}
BENCHMARK(BM_NestedDualGraph)->Arg(24)->Arg(40);

void BM_MultilevelKL(benchmark::State& state) {
  const auto& mesh = adapted_mesh(40);
  const auto dual = mesh::fine_dual_graph(mesh);
  const auto p = static_cast<part::PartId>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    auto pi = part::multilevel_kl(dual.graph, p, rng);
    benchmark::DoNotOptimize(pi.assign.data());
  }
}
BENCHMARK(BM_MultilevelKL)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_RSB(benchmark::State& state) {
  const auto& mesh = adapted_mesh(40);
  const auto dual = mesh::fine_dual_graph(mesh);
  const auto p = static_cast<part::PartId>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    auto pi = part::rsb(dual.graph, p, rng);
    benchmark::DoNotOptimize(pi.assign.data());
  }
}
BENCHMARK(BM_RSB)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_Inertial(benchmark::State& state) {
  const auto& mesh = adapted_mesh(40);
  const auto dual = mesh::fine_dual_graph(mesh);
  const auto coords = mesh::leaf_centroids(mesh, dual.elems);
  for (auto _ : state) {
    auto pi = part::inertial_partition(dual.graph, coords, 2, 16);
    benchmark::DoNotOptimize(pi.assign.data());
  }
}
BENCHMARK(BM_Inertial)->Unit(benchmark::kMillisecond);

void BM_PnrRepartition(benchmark::State& state) {
  const auto p = static_cast<part::PartId>(state.range(0));
  pared::CornerSeries2D series(40);
  for (int l = 0; l < 4; ++l) series.advance();
  const auto before = mesh::nested_dual_graph(series.mesh());
  core::Pnr pnr(p);
  util::Rng rng(1);
  const auto current = pnr.initial_partition(before, rng);
  series.advance();
  const auto after = mesh::nested_dual_graph(series.mesh());
  for (auto _ : state) {
    auto pi = pnr.repartition(after, current, rng);
    benchmark::DoNotOptimize(pi.assign.data());
  }
}
BENCHMARK(BM_PnrRepartition)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_HungarianRemap(benchmark::State& state) {
  const auto p = static_cast<part::PartId>(state.range(0));
  std::vector<graph::Weight> cost(static_cast<std::size_t>(p) * p);
  util::Rng rng(2);
  for (auto& c : cost) c = static_cast<graph::Weight>(rng.next_below(1000));
  for (auto _ : state) {
    auto sigma = part::hungarian_min_cost(cost, p);
    benchmark::DoNotOptimize(sigma.data());
  }
}
BENCHMARK(BM_HungarianRemap)->Arg(32)->Arg(128);

void BM_RivaraRefine(benchmark::State& state) {
  const auto field = fem::corner_problem_2d();
  for (auto _ : state) {
    state.PauseTiming();
    auto mesh = mesh::structured_tri_mesh(40, 40, 0.25, 1);
    fem::MarkOptions mark;
    mark.refine_threshold = 0.01;
    mark.max_level = 4;
    const auto marked = fem::mark_for_refinement(mesh, field, mark);
    state.ResumeTiming();
    benchmark::DoNotOptimize(mesh.refine(marked));
  }
}
BENCHMARK(BM_RivaraRefine)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
