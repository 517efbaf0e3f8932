#include "core/snap.hpp"

#include "util/assert.hpp"

namespace pnr::core {

template <typename Mesh>
SnapResult snap_to_coarse(const Mesh& mesh,
                          const std::vector<mesh::ElemIdx>& elems,
                          const std::vector<part::PartId>& fine_assign,
                          part::PartId num_parts) {
  PNR_REQUIRE(fine_assign.size() == elems.size());
  const auto n0 = static_cast<std::size_t>(mesh.num_initial_elements());
  const auto p = static_cast<std::size_t>(num_parts);

  // votes[c*p + q] = leaves of coarse element c currently on processor q.
  std::vector<std::int64_t> votes(n0 * p, 0);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    const auto c = static_cast<std::size_t>(mesh.element(elems[i]).coarse);
    ++votes[c * p + static_cast<std::size_t>(fine_assign[i])];
  }

  SnapResult out;
  out.coarse_assign.resize(n0, 0);
  for (std::size_t c = 0; c < n0; ++c) {
    std::int64_t best = -1;
    for (std::size_t q = 0; q < p; ++q)
      if (votes[c * p + q] > best) {
        best = votes[c * p + q];
        out.coarse_assign[c] = static_cast<part::PartId>(q);
      }
  }

  out.fine_assign.resize(elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i)
    out.fine_assign[i] =
        out.coarse_assign[static_cast<std::size_t>(
            mesh.element(elems[i]).coarse)];
  return out;
}

template SnapResult snap_to_coarse(const mesh::TriMesh&,
                                   const std::vector<mesh::ElemIdx>&,
                                   const std::vector<part::PartId>&,
                                   part::PartId);
template SnapResult snap_to_coarse(const mesh::TetMesh&,
                                   const std::vector<mesh::ElemIdx>&,
                                   const std::vector<part::PartId>&,
                                   part::PartId);

}  // namespace pnr::core
