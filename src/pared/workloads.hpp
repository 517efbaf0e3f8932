#pragma once
// The paper's two experimental workloads, packaged so every bench drives the
// identical mesh sequences. Each is one class template over the mesh type
// (mesh::TriMesh or mesh::TetMesh); only the initial lattice, the analytic
// field and the default grid and depth differ per dimension.
//
// * CornerSeries (Section 6): adapt the initial quasi-uniform mesh toward
//   the corner singularity of the Laplace problem level by level. Each
//   level ℓ refines every leaf whose L∞ indicator exceeds τ·decay^ℓ — the
//   refined region grows outward from the corner while its interior deepens,
//   matching the paper's 12,498 → 135,371 (2D) and 9,540 → 70,185 (3D)
//   progressions in shape.
// * TransientRun (Section 10): the moving-peak Poisson problem over 100
//   time steps; each step coarsens where the peak left and refines where it
//   arrived. The 3D run lifts it to (-1,1)³ with fem::moving_peak_3d on a
//   coarser default grid, because tet counts grow an order of magnitude
//   faster.

#include <cstdint>

#include "fem/estimator.hpp"
#include "fem/problems.hpp"
#include "mesh/simplex_mesh.hpp"

namespace pnr::pared {

struct CornerOptions {
  double tau = 0.02;        ///< level-0 refinement threshold
  double decay = 0.55;      ///< threshold multiplier per level
  int max_level_slack = 3;  ///< per-level depth cap = level index + slack
  std::uint64_t seed = 1;
};

/// Corner-problem mesh series (levels 0..max_levels).
template <typename MeshT>
class CornerSeriesT {
 public:
  using Mesh = MeshT;
  /// Lattice resolution when the caller names none.
  static constexpr int kDefaultGrid = Mesh::kDim == 2 ? 79 : 12;

  explicit CornerSeriesT(int grid_n = kDefaultGrid, CornerOptions options = {});

  /// Refine to the next level; returns the number of bisections.
  std::int64_t advance();

  int level() const { return level_; }
  const Mesh& mesh() const { return mesh_; }
  Mesh& mutable_mesh() { return mesh_; }
  const fem::MeshField<Mesh>& field() const { return field_; }

 private:
  CornerOptions options_;
  fem::MeshField<Mesh> field_;
  Mesh mesh_;
  int level_ = 0;
};

struct TransientOptions {
  int steps = 100;
  double t_begin = -0.5;
  double t_end = 0.5;
  double refine_threshold = 0.02;
  double coarsen_threshold = 0.004;
  int max_level = 6;  ///< depth cap near the peak
  int grid_n = 40;    ///< initial mesh resolution
  std::uint64_t seed = 1;
};

/// Section 10 transient workload: call advance() once per time step.
template <typename MeshT>
class TransientRunT {
 public:
  using Mesh = MeshT;
  /// TransientOptions as-is in 2D; resized for tets in 3D (grid_n 6,
  /// shallower depth cap).
  static TransientOptions default_options() {
    TransientOptions options;
    if constexpr (Mesh::kDim == 3) {
      options.grid_n = 6;
      options.max_level = 4;
    }
    return options;
  }

  explicit TransientRunT(TransientOptions options = default_options());

  struct StepInfo {
    int step = 0;
    double t = 0.0;
    std::int64_t bisections = 0;
    std::int64_t merges = 0;
  };

  /// Move to the next time step and adapt the mesh; returns what changed.
  StepInfo advance();

  bool done() const { return step_ >= options_.steps; }
  int step() const { return step_; }
  double time() const { return t_; }
  const Mesh& mesh() const { return mesh_; }
  Mesh& mutable_mesh() { return mesh_; }
  const TransientOptions& options() const { return options_; }
  fem::MeshField<Mesh> current_field() const;

 private:
  TransientOptions options_;
  Mesh mesh_;
  int step_ = 0;
  double t_ = 0.0;
};

using CornerSeries2D = CornerSeriesT<mesh::TriMesh>;
using CornerSeries3D = CornerSeriesT<mesh::TetMesh>;
using TransientRun = TransientRunT<mesh::TriMesh>;
using TransientRun3D = TransientRunT<mesh::TetMesh>;

extern template class CornerSeriesT<mesh::TriMesh>;
extern template class CornerSeriesT<mesh::TetMesh>;
extern template class TransientRunT<mesh::TriMesh>;
extern template class TransientRunT<mesh::TetMesh>;

}  // namespace pnr::pared
