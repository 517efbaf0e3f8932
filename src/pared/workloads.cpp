#include "pared/workloads.hpp"

#include <cmath>

#include "mesh/generate.hpp"
#include "util/assert.hpp"

namespace pnr::pared {

namespace {

/// The jittered structured lattice every workload starts from.
template <typename Mesh>
Mesh lattice(int grid_n, std::uint64_t seed) {
  if constexpr (Mesh::kDim == 2)
    return mesh::structured_tri_mesh(grid_n, grid_n, 0.25, seed);
  else
    return mesh::structured_tet_mesh(grid_n, grid_n, grid_n, 0.2, seed);
}

template <typename Mesh>
fem::MeshField<Mesh> corner_problem() {
  if constexpr (Mesh::kDim == 2)
    return fem::corner_problem_2d();
  else
    return fem::corner_problem_3d();
}

template <typename Mesh>
fem::MeshField<Mesh> moving_peak(double t) {
  if constexpr (Mesh::kDim == 2)
    return fem::moving_peak(t);
  else
    return fem::moving_peak_3d(t);
}

}  // namespace

// ---- CornerSeriesT ----------------------------------------------------------

template <typename Mesh>
CornerSeriesT<Mesh>::CornerSeriesT(int grid_n, CornerOptions options)
    : options_(options),
      field_(corner_problem<Mesh>()),
      mesh_(lattice<Mesh>(grid_n, options.seed)) {}

template <typename Mesh>
std::int64_t CornerSeriesT<Mesh>::advance() {
  ++level_;
  fem::MarkOptions mark;
  mark.refine_threshold =
      options_.tau * std::pow(options_.decay, static_cast<double>(level_ - 1));
  mark.max_level = level_ + options_.max_level_slack;
  const auto marked = fem::mark_for_refinement(mesh_, field_, mark);
  return mesh_.refine(marked);
}

// ---- TransientRunT ----------------------------------------------------------

template <typename Mesh>
TransientRunT<Mesh>::TransientRunT(TransientOptions options)
    : options_(options),
      mesh_(lattice<Mesh>(options.grid_n, options.seed)),
      t_(options.t_begin) {
  PNR_REQUIRE(options.steps >= 1);
  // Pre-adapt to the initial peak position so step 0 starts converged.
  const auto field = moving_peak<Mesh>(t_);
  fem::MarkOptions mark;
  mark.refine_threshold = options_.refine_threshold;
  mark.max_level = options_.max_level;
  for (int round = 0; round < options_.max_level + 2; ++round) {
    const auto marked = fem::mark_for_refinement(mesh_, field, mark);
    if (marked.empty()) break;
    mesh_.refine(marked);
  }
}

template <typename Mesh>
typename TransientRunT<Mesh>::StepInfo TransientRunT<Mesh>::advance() {
  PNR_REQUIRE(!done());
  StepInfo info;
  ++step_;
  t_ = options_.t_begin + (options_.t_end - options_.t_begin) *
                              static_cast<double>(step_) /
                              static_cast<double>(options_.steps);
  info.step = step_;
  info.t = t_;

  const auto field = moving_peak<Mesh>(t_);
  fem::MarkOptions mark;
  mark.refine_threshold = options_.refine_threshold;
  mark.coarsen_threshold = options_.coarsen_threshold;
  mark.max_level = options_.max_level;

  // Coarsen the wake, then refine the front until the indicator settles
  // (bounded number of rounds: the peak moves a fraction of its width per
  // step).
  for (int round = 0; round < 4; ++round) {
    const auto merged =
        mesh_.coarsen(fem::mark_for_coarsening(mesh_, field, mark));
    info.merges += merged;
    if (merged == 0) break;
  }
  for (int round = 0; round < options_.max_level + 2; ++round) {
    const auto marked = fem::mark_for_refinement(mesh_, field, mark);
    if (marked.empty()) break;
    info.bisections += mesh_.refine(marked);
  }
  return info;
}

template <typename Mesh>
fem::MeshField<Mesh> TransientRunT<Mesh>::current_field() const {
  return moving_peak<Mesh>(t_);
}

template class CornerSeriesT<mesh::TriMesh>;
template class CornerSeriesT<mesh::TetMesh>;
template class TransientRunT<mesh::TriMesh>;
template class TransientRunT<mesh::TetMesh>;

}  // namespace pnr::pared
