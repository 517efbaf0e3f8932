#pragma once
// The paper's two experimental workloads, packaged so every bench drives the
// identical mesh sequences.
//
// * CornerSeries (Section 6): adapt the initial quasi-uniform mesh toward
//   the corner singularity of the Laplace problem level by level. Each
//   level ℓ refines every leaf whose L∞ indicator exceeds τ·decay^ℓ — the
//   refined region grows outward from the corner while its interior deepens,
//   matching the paper's 12,498 → 135,371 (2D) and 9,540 → 70,185 (3D)
//   progressions in shape.
// * TransientRun (Section 10): the moving-peak Poisson problem over 100
//   time steps; each step coarsens where the peak left and refines where it
//   arrived.

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

/// 2D corner-problem mesh series (levels 0..max_levels).
class CornerSeries2D {
 public:
  explicit CornerSeries2D(int grid_n = 79, CornerOptions options = {});

  /// Refine to the next level; returns the number of bisections.
  std::int64_t advance();

  int level() const { return level_; }
  const mesh::TriMesh& mesh() const { return mesh_; }
  mesh::TriMesh& mutable_mesh() { return mesh_; }
  const fem::ScalarField2& field() const { return field_; }

 private:
  CornerOptions options_;
  fem::ScalarField2 field_;
  mesh::TriMesh mesh_;
  int level_ = 0;
};

/// 3D corner-problem mesh series (levels 0..max_levels).
class CornerSeries3D {
 public:
  explicit CornerSeries3D(int grid_n = 12, CornerOptions options = {});

  std::int64_t advance();

  int level() const { return level_; }
  const mesh::TetMesh& mesh() const { return mesh_; }
  mesh::TetMesh& mutable_mesh() { return mesh_; }
  const fem::ScalarField3& field() const { return field_; }

 private:
  CornerOptions options_;
  fem::ScalarField3 field_;
  mesh::TetMesh mesh_;
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
class TransientRun {
 public:
  explicit TransientRun(TransientOptions options = {});

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
  const mesh::TriMesh& mesh() const { return mesh_; }
  mesh::TriMesh& mutable_mesh() { return mesh_; }
  const TransientOptions& options() const { return options_; }
  fem::ScalarField2 current_field() const { return fem::moving_peak(t_); }

 private:
  TransientOptions options_;
  mesh::TriMesh mesh_;
  int step_ = 0;
  double t_ = 0.0;
};

/// 3D moving-peak transient (the Section 10 workload lifted to (-1,1)³ with
/// fem::moving_peak_3d). Same stepping contract as TransientRun; the default
/// grid is coarser because tet counts grow an order of magnitude faster.
class TransientRun3D {
 public:
  explicit TransientRun3D(TransientOptions options = default_options());

  /// TransientOptions resized for tets (grid_n 6, shallower depth cap).
  static TransientOptions default_options() {
    TransientOptions options;
    options.grid_n = 6;
    options.max_level = 4;
    return options;
  }

  using StepInfo = TransientRun::StepInfo;

  StepInfo advance();

  bool done() const { return step_ >= options_.steps; }
  int step() const { return step_; }
  double time() const { return t_; }
  const mesh::TetMesh& mesh() const { return mesh_; }
  mesh::TetMesh& mutable_mesh() { return mesh_; }
  const TransientOptions& options() const { return options_; }
  fem::ScalarField3 current_field() const { return fem::moving_peak_3d(t_); }

 private:
  TransientOptions options_;
  mesh::TetMesh mesh_;
  int step_ = 0;
  double t_ = 0.0;
};

}  // namespace pnr::pared
