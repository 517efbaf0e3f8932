#pragma once
// The PARED coordinator protocol of Figure 2, run over the message-passing
// simulator, for both 2D triangle and 3D tetrahedral meshes. Ranks hold a
// *replicated* copy of the mesh (our parallel refinement, like the paper's,
// produces the identical mesh on every rank — see DESIGN.md substitutions)
// but each refinement-history tree is *owned* by exactly one rank;
// ownership is what the protocol redistributes.
//
//   P0  every rank adapts the mesh (refine + coarsen) deterministically;
//   P1  each rank computes new vertex/edge weights of the coarse graph G
//       for the trees it owns;
//   P2  the weights are sent to the coordinator P_C;
//   P3  P_C updates G, repartitions it with PNR, and broadcasts the new
//       assignment; ranks serialize the refinement trees they lose and ship
//       them to the new owners, which validate the payload.
//
// Migration traffic is therefore real serialized bytes proportional to the
// number of fine elements moved — the quantity the paper's Figures 4/5/8
// measure.

#include <cstdint>
#include <vector>

#include "core/pnr.hpp"
#include "fem/estimator.hpp"
#include "fem/problems.hpp"
#include "mesh/simplex_mesh.hpp"
#include "parallel/comm.hpp"

namespace pnr::par {

struct StepStats {
  std::int64_t bisections = 0;      ///< P0 refinements (global)
  std::int64_t merges = 0;          ///< P0 coarsenings (global)
  std::int64_t trees_moved = 0;     ///< coarse trees that changed owner
  std::int64_t elements_moved = 0;  ///< leaves in those trees (C_migrate)
  std::int64_t payload_bytes = 0;   ///< serialized tree bytes shipped
  graph::Weight cut_after = 0;      ///< coarse-graph cut of the new Π̂
  double imbalance_after = 0.0;
};

/// One rank's view of the protocol. Construct inside World::run.
template <typename Mesh>
class ParedRankT {
 public:
  using Field = fem::MeshField<Mesh>;

  /// Every rank constructs the same initial mesh (replication invariant).
  ParedRankT(Comm& comm, Mesh mesh, core::PnrOptions options,
             std::uint64_t seed);

  /// The coordinator computes the initial PNR partition of G and broadcasts
  /// it; every rank records the resulting tree ownership.
  void initialize();

  /// One full P0–P3 round against the given field/marking policy.
  StepStats step(const Field& field, const fem::MarkOptions& mark);

  /// Tree owner per initial element (identical on every rank after a step).
  const std::vector<part::PartId>& ownership() const { return ownership_; }
  const Mesh& local_mesh() const { return mesh_; }

  /// Leaves owned by this rank (elements of trees assigned to it).
  std::int64_t owned_leaves() const;

  static constexpr int kCoordinator = 0;

 private:
  graph::Graph assemble_coarse_graph(StepStats& stats);
  void migrate_trees(const std::vector<part::PartId>& next, StepStats& stats);

  Comm& comm_;
  Mesh mesh_;
  core::Pnr pnr_;
  util::Rng rng_;
  std::vector<part::PartId> ownership_;  ///< per initial element
};

using ParedRank = ParedRankT<mesh::TriMesh>;
using ParedRank3D = ParedRankT<mesh::TetMesh>;

extern template class ParedRankT<mesh::TriMesh>;
extern template class ParedRankT<mesh::TetMesh>;

}  // namespace pnr::par
