#pragma once
// The constructive side of Theorem 6.1: turn an arbitrary partition of the
// fine mesh M^t into one that respects the boundaries of the initial mesh
// M^0 (i.e., assigns every refinement tree to a single processor, which is
// the only kind of partition PNR can express). Each coarse element goes to
// the processor owning the plurality of its leaves. The theorem bounds the
// cut expansion of such a snap by a constant factor and the extra imbalance
// by (p−1)d² under uniform depth-d refinement; the tests and the
// bench_ablation_nested harness measure both.

#include <vector>

#include "mesh/dual.hpp"
#include "partition/partition.hpp"

namespace pnr::core {

struct SnapResult {
  /// Per-initial-element subset (a valid assignment for the nested graph).
  std::vector<part::PartId> coarse_assign;
  /// The same partition expanded back to the fine leaves.
  std::vector<part::PartId> fine_assign;
};

/// `elems`/`fine_assign` describe a partition of the leaves (dense order as
/// produced by mesh::fine_dual_graph / leaf_elements).
template <typename Mesh>
SnapResult snap_to_coarse(const Mesh& mesh,
                          const std::vector<mesh::ElemIdx>& elems,
                          const std::vector<part::PartId>& fine_assign,
                          part::PartId num_parts);

}  // namespace pnr::core
