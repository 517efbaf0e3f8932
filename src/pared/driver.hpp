#pragma once
// The full PARED loop as a reusable component: solve → estimate → mark →
// adapt → repartition, with per-phase timings. This is what Section 2
// describes as one "round of equation solving, error estimation, mesh
// adaptation, mesh repartitioning and work migration", minus the physical
// migration (tracked logically through the session's element tags; the
// message-level version lives in pnr::par::ParedRank).

#include <cstdint>

#include "fem/estimator.hpp"
#include "fem/p1.hpp"
#include "pared/session.hpp"

namespace pnr::pared {

struct DriverOptions {
  part::PartId procs = 8;
  Strategy strategy = Strategy::kPNR;
  /// Run the P1 Poisson solve every step (costs the most time; off for
  /// partitioning-only studies).
  bool solve = false;
  double solve_tol = 1e-9;
  std::uint64_t seed = 1;
};

struct DriverReport {
  StepReport partition;        ///< the session's measures
  std::int64_t bisections = 0;
  std::int64_t merges = 0;
  double adapt_seconds = 0.0;
  double partition_seconds = 0.0;
  double solve_seconds = 0.0;
  double solve_error = 0.0;  ///< L∞ vs the analytic solution (if solving)
  int cg_iterations = 0;
};

template <typename Mesh>
class AdaptiveDriver {
 public:
  using Field = fem::MeshField<Mesh>;

  AdaptiveDriver(Mesh mesh, DriverOptions options)
      : mesh_(std::move(mesh)),
        options_(options),
        session_(options.strategy, options.procs, options.seed) {}

  /// One full round against `field` using the marking policy `mark`.
  DriverReport step(const Field& field, const fem::MarkOptions& mark);

  const Mesh& mesh() const { return mesh_; }
  Mesh& mutable_mesh() { return mesh_; }
  const Session<Mesh>& session() const { return session_; }

 private:
  Mesh mesh_;
  DriverOptions options_;
  Session<Mesh> session_;
};

using AdaptiveDriver2D = AdaptiveDriver<mesh::TriMesh>;
using AdaptiveDriver3D = AdaptiveDriver<mesh::TetMesh>;

extern template class AdaptiveDriver<mesh::TriMesh>;
extern template class AdaptiveDriver<mesh::TetMesh>;

}  // namespace pnr::pared
