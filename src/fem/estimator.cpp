#include "fem/estimator.hpp"

#include <algorithm>
#include <cmath>

namespace pnr::fem {

namespace {

double value_at(const ScalarField2& field, const mesh::Point2& p) {
  return field.value(p.x, p.y);
}
double value_at(const ScalarField3& field, const mesh::Point3& p) {
  return field.value(p.x, p.y, p.z);
}

}  // namespace

template <typename Mesh>
double element_indicator(const Mesh& mesh, mesh::ElemIdx e,
                         const MeshField<Mesh>& field) {
  const auto& t = mesh.element(e);
  const double uc = value_at(field, mesh.centroid(e));
  double eta = 0.0;
  for (const mesh::VertIdx v : t.v)
    eta = std::max(eta, std::abs(value_at(field, mesh.vertex(v)) - uc));
  return eta;
}

template <typename Mesh>
std::vector<mesh::ElemIdx> mark_for_refinement(const Mesh& mesh,
                                               const MeshField<Mesh>& field,
                                               const MarkOptions& options) {
  std::vector<mesh::ElemIdx> marked;
  for (const mesh::ElemIdx e : mesh.leaf_elements())
    if (mesh.element(e).level < options.max_level &&
        element_indicator(mesh, e, field) > options.refine_threshold)
      marked.push_back(e);
  return marked;
}

template <typename Mesh>
std::vector<mesh::ElemIdx> mark_for_coarsening(const Mesh& mesh,
                                               const MeshField<Mesh>& field,
                                               const MarkOptions& options) {
  std::vector<mesh::ElemIdx> marked;
  if (options.coarsen_threshold <= 0.0) return marked;
  for (const mesh::ElemIdx e : mesh.leaf_elements())
    if (element_indicator(mesh, e, field) < options.coarsen_threshold)
      marked.push_back(e);
  return marked;
}

template double element_indicator(const mesh::TriMesh&, mesh::ElemIdx,
                                  const ScalarField2&);
template double element_indicator(const mesh::TetMesh&, mesh::ElemIdx,
                                  const ScalarField3&);
template std::vector<mesh::ElemIdx> mark_for_refinement(
    const mesh::TriMesh&, const ScalarField2&, const MarkOptions&);
template std::vector<mesh::ElemIdx> mark_for_refinement(
    const mesh::TetMesh&, const ScalarField3&, const MarkOptions&);
template std::vector<mesh::ElemIdx> mark_for_coarsening(
    const mesh::TriMesh&, const ScalarField2&, const MarkOptions&);
template std::vector<mesh::ElemIdx> mark_for_coarsening(
    const mesh::TetMesh&, const ScalarField3&, const MarkOptions&);

}  // namespace pnr::fem
