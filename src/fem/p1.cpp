#include "fem/p1.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace pnr::fem {

namespace {

template <typename Mesh>
void number_dofs(const Mesh& mesh, P1System& sys) {
  sys.vert_to_dof.assign(mesh.vertex_slots(), -1);
  for (std::size_t v = 0; v < mesh.vertex_slots(); ++v)
    if (mesh.vertex_alive(static_cast<mesh::VertIdx>(v))) {
      sys.vert_to_dof[v] = static_cast<std::int32_t>(sys.dof_to_vert.size());
      sys.dof_to_vert.push_back(static_cast<mesh::VertIdx>(v));
    }
}

}  // namespace

P1System assemble_poisson(const mesh::TriMesh& mesh,
                          const ScalarField2& field) {
  P1System sys;
  number_dofs(mesh, sys);
  const auto n = static_cast<std::int32_t>(sys.dof_to_vert.size());
  sys.rhs.assign(static_cast<std::size_t>(n), 0.0);

  std::vector<std::int32_t> rows, cols;
  std::vector<double> vals;
  const auto leaves = mesh.leaf_elements();
  rows.reserve(leaves.size() * 9);
  cols.reserve(leaves.size() * 9);
  vals.reserve(leaves.size() * 9);

  for (const mesh::ElemIdx e : leaves) {
    const auto& t = mesh.element(e);
    const mesh::Point2 p[3] = {mesh.vertex(t.v[0]), mesh.vertex(t.v[1]),
                               mesh.vertex(t.v[2])};
    const double area = mesh.signed_measure(e);
    PNR_ASSERT(area > 0.0);
    // Gradient coefficients: b_i = y_{i+1} − y_{i+2}, c_i = x_{i+2} − x_{i+1}.
    double b[3], c[3];
    for (int i = 0; i < 3; ++i) {
      const int j = (i + 1) % 3, k = (i + 2) % 3;
      b[i] = p[j].y - p[k].y;
      c[i] = p[k].x - p[j].x;
    }
    std::int32_t dof[3];
    for (int i = 0; i < 3; ++i)
      dof[i] = sys.vert_to_dof[static_cast<std::size_t>(t.v[static_cast<std::size_t>(i)])];

    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) {
        rows.push_back(dof[i]);
        cols.push_back(dof[j]);
        vals.push_back((b[i] * b[j] + c[i] * c[j]) / (4.0 * area));
      }
    // One-point quadrature for the load.
    const mesh::Point2 cen = mesh.centroid(e);
    const double f = field.neg_laplacian(cen.x, cen.y);
    for (int i = 0; i < 3; ++i)
      sys.rhs[static_cast<std::size_t>(dof[i])] += f * area / 3.0;
  }
  sys.matrix = CsrMatrix::from_triplets(n, rows, cols, vals);

  // Dirichlet boundary from the analytic field.
  const auto boundary = mesh.boundary_vertex_mask();
  std::vector<char> constrained(static_cast<std::size_t>(n), false);
  std::vector<double> values(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t d = 0; d < n; ++d) {
    const auto v = static_cast<std::size_t>(sys.dof_to_vert[static_cast<std::size_t>(d)]);
    if (boundary[v]) {
      constrained[static_cast<std::size_t>(d)] = true;
      const mesh::Point2& pt = mesh.vertex(static_cast<mesh::VertIdx>(v));
      values[static_cast<std::size_t>(d)] = field.value(pt.x, pt.y);
    }
  }
  sys.matrix.set_dirichlet_all(constrained, values, sys.rhs);
  return sys;
}

P1System assemble_poisson(const mesh::TetMesh& mesh,
                          const ScalarField3& field) {
  P1System sys;
  number_dofs(mesh, sys);
  const auto n = static_cast<std::int32_t>(sys.dof_to_vert.size());
  sys.rhs.assign(static_cast<std::size_t>(n), 0.0);

  std::vector<std::int32_t> rows, cols;
  std::vector<double> vals;
  const auto leaves = mesh.leaf_elements();
  rows.reserve(leaves.size() * 16);
  cols.reserve(leaves.size() * 16);
  vals.reserve(leaves.size() * 16);

  for (const mesh::ElemIdx e : leaves) {
    const auto& t = mesh.element(e);
    const mesh::Point3 p[4] = {mesh.vertex(t.v[0]), mesh.vertex(t.v[1]),
                               mesh.vertex(t.v[2]), mesh.vertex(t.v[3])};
    const double vol = mesh.signed_measure(e);
    PNR_ASSERT(vol > 0.0);

    // Barycentric gradients: rows of the inverse of M = [p1−p0 p2−p0 p3−p0].
    const double m[3][3] = {
        {p[1].x - p[0].x, p[2].x - p[0].x, p[3].x - p[0].x},
        {p[1].y - p[0].y, p[2].y - p[0].y, p[3].y - p[0].y},
        {p[1].z - p[0].z, p[2].z - p[0].z, p[3].z - p[0].z}};
    const double det = 6.0 * vol;
    double inv[3][3];  // inverse of M times det, then scaled
    inv[0][0] = m[1][1] * m[2][2] - m[1][2] * m[2][1];
    inv[0][1] = m[0][2] * m[2][1] - m[0][1] * m[2][2];
    inv[0][2] = m[0][1] * m[1][2] - m[0][2] * m[1][1];
    inv[1][0] = m[1][2] * m[2][0] - m[1][0] * m[2][2];
    inv[1][1] = m[0][0] * m[2][2] - m[0][2] * m[2][0];
    inv[1][2] = m[0][2] * m[1][0] - m[0][0] * m[1][2];
    inv[2][0] = m[1][0] * m[2][1] - m[1][1] * m[2][0];
    inv[2][1] = m[0][1] * m[2][0] - m[0][0] * m[2][1];
    inv[2][2] = m[0][0] * m[1][1] - m[0][1] * m[1][0];

    double grad[4][3];
    for (int i = 1; i < 4; ++i)
      for (int d = 0; d < 3; ++d) grad[i][d] = inv[i - 1][d] / det;
    for (int d = 0; d < 3; ++d)
      grad[0][d] = -(grad[1][d] + grad[2][d] + grad[3][d]);

    std::int32_t dof[4];
    for (int i = 0; i < 4; ++i)
      dof[i] = sys.vert_to_dof[static_cast<std::size_t>(t.v[static_cast<std::size_t>(i)])];

    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) {
        double dotg = 0.0;
        for (int d = 0; d < 3; ++d) dotg += grad[i][d] * grad[j][d];
        rows.push_back(dof[i]);
        cols.push_back(dof[j]);
        vals.push_back(dotg * vol);
      }
    const mesh::Point3 cen = mesh.centroid(e);
    const double f = field.neg_laplacian(cen.x, cen.y, cen.z);
    for (int i = 0; i < 4; ++i)
      sys.rhs[static_cast<std::size_t>(dof[i])] += f * vol / 4.0;
  }
  sys.matrix = CsrMatrix::from_triplets(n, rows, cols, vals);

  const auto boundary = mesh.boundary_vertex_mask();
  std::vector<char> constrained(static_cast<std::size_t>(n), false);
  std::vector<double> values(static_cast<std::size_t>(n), 0.0);
  for (std::int32_t d = 0; d < n; ++d) {
    const auto v = static_cast<std::size_t>(sys.dof_to_vert[static_cast<std::size_t>(d)]);
    if (boundary[v]) {
      constrained[static_cast<std::size_t>(d)] = true;
      const mesh::Point3& pt = mesh.vertex(static_cast<mesh::VertIdx>(v));
      values[static_cast<std::size_t>(d)] = field.value(pt.x, pt.y, pt.z);
    }
  }
  sys.matrix.set_dirichlet_all(constrained, values, sys.rhs);
  return sys;
}

SolveResult solve_poisson(const mesh::TriMesh& mesh, const ScalarField2& field,
                          double tol) {
  P1System sys = assemble_poisson(mesh, field);
  SolveResult out;
  out.u.assign(sys.rhs.size(), 0.0);
  out.cg = conjugate_gradient(sys.matrix, sys.rhs, out.u, tol);
  for (std::size_t d = 0; d < out.u.size(); ++d) {
    const mesh::Point2& pt = mesh.vertex(sys.dof_to_vert[d]);
    out.max_error =
        std::max(out.max_error, std::abs(out.u[d] - field.value(pt.x, pt.y)));
  }
  return out;
}

SolveResult solve_poisson(const mesh::TetMesh& mesh, const ScalarField3& field,
                          double tol) {
  P1System sys = assemble_poisson(mesh, field);
  SolveResult out;
  out.u.assign(sys.rhs.size(), 0.0);
  out.cg = conjugate_gradient(sys.matrix, sys.rhs, out.u, tol);
  for (std::size_t d = 0; d < out.u.size(); ++d) {
    const mesh::Point3& pt = mesh.vertex(sys.dof_to_vert[d]);
    out.max_error = std::max(
        out.max_error, std::abs(out.u[d] - field.value(pt.x, pt.y, pt.z)));
  }
  return out;
}

}  // namespace pnr::fem
