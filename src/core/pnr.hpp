#pragma once
// Parallel Nested Repartitioning (Sections 5 and 9 of the paper).
//
// PNR operates on the weighted dual graph G of the *initial* mesh M^0: one
// vertex per coarse element with weight = number of leaves of its refinement
// history tree; edge weights = adjacent leaf pairs across the interface.
// The initial partition of G uses a standard multilevel algorithm. Every
// subsequent repartition uses a modified Multilevel-KL:
//   (a) the coarsest contracted graph is NOT re-partitioned — contraction is
//       restricted to vertices in the same subset, so the current assignment
//       projects onto it unchanged;
//   (b) the KL gain reflects C_repartition(Π, Π̂, α, β) of Eq. 1, so moves
//       trade cut against migration and (squared-deviation) balance.
// The paper's experiments use α = 0.1 and β = 0.8 and report ε < 0.01.

#include <vector>

#include "graph/coarsen.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace pnr::core {

struct PnrOptions {
  double alpha = 0.1;  ///< migration cost weight in Eq. 1
  double beta = 0.8;   ///< balance cost weight in Eq. 1
  /// Also impose balance as a hard constraint during refinement. The soft β
  /// term alone makes heavy-vertex moves prohibitively expensive (the
  /// quadratic penalty of temporarily unbalancing by one deep refinement
  /// tree dwarfs any cut gain), which freezes the cut; a hard cap with the
  /// β pressure inside it reproduces the paper's ε < 0.01 *and* its cut
  /// parity. See bench_ablation_alpha_beta for the measured difference.
  bool hard_balance = true;
  double imbalance_tol = 0.01;  ///< the paper reports ε < 0.01
  int max_passes = 12;
  graph::VertexId coarsest_size = 64;
  /// Ablation switch: re-partition the coarsest graph from scratch instead
  /// of keeping the current assignment (turns off modification (a) and
  /// reproduces the "standard heuristics migrate half the mesh" failure).
  bool repartition_coarsest = false;
  /// Ablation switch: random matching instead of heavy-edge.
  bool random_matching = false;
};

/// The measures the paper's tables report for one repartitioning step.
struct RepartitionStats {
  graph::Weight cut_before = 0;      ///< C_cut of the incoming assignment
  graph::Weight cut_after = 0;       ///< C_cut(Π̂^t)
  graph::Weight migrate = 0;         ///< C_migrate(Π^t, Π̂^t) in fine elements
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;      ///< the paper's ε
  int levels = 0;                    ///< contraction levels used
};

class Pnr {
 public:
  explicit Pnr(part::PartId p, PnrOptions options = {});

  part::PartId num_parts() const { return p_; }
  const PnrOptions& options() const { return options_; }

  /// First partition of the weighted coarse graph (standard multilevel,
  /// polished with the soft-balance objective to reach small ε).
  part::Partition initial_partition(const graph::Graph& g, util::Rng& rng) const;

  /// Repartition after adaptation: `current` is Π^{t-1} carried to the
  /// updated weights of `g`; the result is Π̂^t minimizing Eq. 1.
  part::Partition repartition(const graph::Graph& g,
                              const part::Partition& current, util::Rng& rng,
                              RepartitionStats* stats = nullptr) const;

 private:
  part::PartId p_;
  PnrOptions options_;
};

}  // namespace pnr::core
