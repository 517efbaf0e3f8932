#include "fem/estimator.hpp"

#include <algorithm>
#include <cmath>

namespace pnr::fem {

double element_indicator(const mesh::TriMesh& mesh, mesh::ElemIdx e,
                         const ScalarField2& field) {
  const auto& t = mesh.element(e);
  const mesh::Point2 c = mesh.centroid(e);
  const double uc = field.value(c.x, c.y);
  double eta = 0.0;
  for (const mesh::VertIdx v : t.v) {
    const mesh::Point2& p = mesh.vertex(v);
    eta = std::max(eta, std::abs(field.value(p.x, p.y) - uc));
  }
  return eta;
}

double element_indicator(const mesh::TetMesh& mesh, mesh::ElemIdx e,
                         const ScalarField3& field) {
  const auto& t = mesh.element(e);
  const mesh::Point3 c = mesh.centroid(e);
  const double uc = field.value(c.x, c.y, c.z);
  double eta = 0.0;
  for (const mesh::VertIdx v : t.v) {
    const mesh::Point3& p = mesh.vertex(v);
    eta = std::max(eta, std::abs(field.value(p.x, p.y, p.z) - uc));
  }
  return eta;
}

namespace {

template <typename Mesh, typename Field>
std::vector<mesh::ElemIdx> mark_refine_impl(const Mesh& mesh,
                                            const Field& field,
                                            const MarkOptions& options) {
  std::vector<mesh::ElemIdx> marked;
  for (const mesh::ElemIdx e : mesh.leaf_elements())
    if (mesh.element(e).level < options.max_level &&
        element_indicator(mesh, e, field) > options.refine_threshold)
      marked.push_back(e);
  return marked;
}

template <typename Mesh, typename Field>
std::vector<mesh::ElemIdx> mark_coarsen_impl(const Mesh& mesh,
                                             const Field& field,
                                             const MarkOptions& options) {
  std::vector<mesh::ElemIdx> marked;
  if (options.coarsen_threshold <= 0.0) return marked;
  for (const mesh::ElemIdx e : mesh.leaf_elements())
    if (element_indicator(mesh, e, field) < options.coarsen_threshold)
      marked.push_back(e);
  return marked;
}

}  // namespace

std::vector<mesh::ElemIdx> mark_for_refinement(const mesh::TriMesh& mesh,
                                               const ScalarField2& field,
                                               const MarkOptions& options) {
  return mark_refine_impl(mesh, field, options);
}

std::vector<mesh::ElemIdx> mark_for_refinement(const mesh::TetMesh& mesh,
                                               const ScalarField3& field,
                                               const MarkOptions& options) {
  return mark_refine_impl(mesh, field, options);
}

std::vector<mesh::ElemIdx> mark_for_coarsening(const mesh::TriMesh& mesh,
                                               const ScalarField2& field,
                                               const MarkOptions& options) {
  return mark_coarsen_impl(mesh, field, options);
}

std::vector<mesh::ElemIdx> mark_for_coarsening(const mesh::TetMesh& mesh,
                                               const ScalarField3& field,
                                               const MarkOptions& options) {
  return mark_coarsen_impl(mesh, field, options);
}

}  // namespace pnr::fem
