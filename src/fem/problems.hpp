#pragma once
// The paper's two analytic test problems.
//
// Section 6 (static, Laplace Δu = 0 on (-1,1)²):
//   u(x,y) = g(x,y) = cos(2π(x−y))·sinh(2π(x+y+2))/sinh(8π)
// — smooth but changing rapidly near the corner (1,1). Our 3D analog keeps
// harmonicity and corner concentration by summing two such separable modes.
//
// Section 10 (transient, Poisson Δu = f on (-1,1)²):
//   u(x,y,t) = 1/(1 + 100(x+t)² + 100(y+t)²)
// — a peak of height 1 at (−t, −t) moving along the diagonal for
// t ∈ [−0.5, 0.5].

#include <functional>
#include <type_traits>

namespace pnr::fem {

/// A time-independent scalar field with enough calculus for the estimator.
struct ScalarField2 {
  std::function<double(double, double)> value;
  /// −Δu (the Poisson right-hand side; zero for harmonic fields).
  std::function<double(double, double)> neg_laplacian;
};

struct ScalarField3 {
  std::function<double(double, double, double)> value;
  std::function<double(double, double, double)> neg_laplacian;
};

/// The field type that drives adaptation of a mesh of dimension Mesh::kDim.
template <typename Mesh>
using MeshField =
    std::conditional_t<Mesh::kDim == 2, ScalarField2, ScalarField3>;

/// The Section 6 corner problem (harmonic).
ScalarField2 corner_problem_2d();

/// 3D analog: sum of two harmonic separable modes peaking at (1,1,1).
ScalarField3 corner_problem_3d();

/// The Section 10 moving peak at time t (with its exact −Δu).
ScalarField2 moving_peak(double t);

/// 3D analog of the moving peak: u = 1/(1 + 100·|x + t·1|²), a peak of
/// height 1 at (−t,−t,−t) moving along the main diagonal of (-1,1)³.
ScalarField3 moving_peak_3d(double t);

}  // namespace pnr::fem
