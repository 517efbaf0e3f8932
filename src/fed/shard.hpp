#pragma once
// Shard-side federation state machine (docs/FEDERATION.md).
//
// A shard is one daemon's slice of a federated repartition round: a real
// transient workload run on a *replicated* mesh plus an ownership vector
// over the refinement trees (one owner per initial element, the PARED
// replication model on sockets). The coordinator drives the round protocol:
//
//   advance          step the replicated workload (every shard identically);
//   interface_report gather this shard's owned coarse weights + interface
//                    edges (primary for owned-min edges, echo for owned-max
//                    cross-shard edges — check::check_fed_reports audits);
//   apply_plan       stage the coordinator's next assignment and pack the
//                    refinement-history subtrees leaving this shard;
//   ingest           verify an incoming subtree bit-for-bit against the
//                    replica before accepting ownership;
//   commit           flip ownership to the staged plan and re-tag leaves.
//
// Every mutating transition (advance / apply_plan / commit) is
// deterministic from the workload spec + op sequence, so svc checkpoints
// replay shards exactly like single-process sessions. ingest mutates
// nothing — the replica already holds every element — which is why it is
// pure validation and never enters the oplog.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "check/check_fed.hpp"
#include "fed/migrate.hpp"
#include "pared/workloads.hpp"
#include "partition/partition.hpp"

namespace pnr::fed {

template <typename Run>
class ShardT {
 public:
  using Mesh = typename Run::Mesh;

  /// `rank` in [0, count): this daemon's slot. Tree `c` starts owned by
  /// shard `c % count` on every shard (deterministic, no round needed).
  ShardT(Run run, int rank, int count);

  struct AdvanceResult {
    int step = 0;
    double t = 0.0;
    std::int64_t bisections = 0;
    std::int64_t merges = 0;
    std::int64_t elements = 0;  ///< leaves after the step
    std::uint64_t mesh_fp = 0;  ///< replica digest after the step
  };

  /// One subtree leaving this shard for `dest`.
  struct Outgoing {
    int dest = 0;
    mesh::ElemIdx root = 0;
    Bytes payload;
  };

  struct PlanResult {
    std::int64_t trees_out = 0;
    std::int64_t elements_out = 0;  ///< leaves leaving this shard
    std::vector<Outgoing> outgoing;
  };

  struct CommitResult {
    std::int64_t elements = 0;      ///< total replica leaves
    std::int64_t owned_leaves = 0;  ///< leaves owned after the flip
    std::uint64_t assign_fp = 0;    ///< digest of the adopted ownership
    std::uint64_t mesh_fp = 0;
  };

  /// Step the replicated workload. Fails (nullopt + why) when the workload
  /// is finished or a migration round is still in flight.
  std::optional<AdvanceResult> advance(std::string* why = nullptr);

  /// This shard's slice of the coarse graph: owned vertices with leaf
  /// counts, primary edges (it owns min(a, b)), echoes of cross-shard
  /// edges whose max endpoint it owns. Edges sorted by (a, b).
  check::FedShardReport interface_report() const;

  /// Stage the coordinator's next coarse assignment and pack every subtree
  /// this shard must ship. Fails on shape/range errors or when a plan is
  /// already staged.
  std::optional<PlanResult> apply_plan(std::span<const part::PartId> next,
                                       std::string* why = nullptr);

  struct IngestResult {
    std::int64_t nodes = 0;
    std::int64_t leaves = 0;
  };

  /// Verify a subtree pushed by shard `src` bit-for-bit against the
  /// replica. Requires a staged plan that moves `root` from `src` to this
  /// shard. Pure validation: the replica already holds the elements, so a
  /// hostile payload is rejected with a diagnosis and no state changes.
  std::optional<IngestResult> ingest(int src, mesh::ElemIdx root,
                                     const std::uint8_t* data,
                                     std::size_t size,
                                     std::string* why = nullptr);

  /// Flip ownership to the staged plan and re-tag every leaf with its new
  /// owner (mesh tags follow adaptation, so subsequent rounds inherit the
  /// adopted partition). Fails when no plan is staged.
  std::optional<CommitResult> commit(std::string* why = nullptr);

  int rank() const { return rank_; }
  int count() const { return count_; }
  bool done() const { return run_.done(); }
  int step() const { return run_.step(); }
  bool plan_staged() const { return staged_.has_value(); }
  std::int64_t elements() const { return run_.mesh().num_leaves(); }
  std::int64_t owned_leaves() const;
  std::uint64_t mesh_fp() const { return mesh_fingerprint(run_.mesh()); }
  std::uint64_t assign_fp() const {
    return assignment_fingerprint(ownership_);
  }
  const Run& run() const { return run_; }
  const std::vector<part::PartId>& ownership() const { return ownership_; }

 private:
  Run run_;
  int rank_;
  int count_;
  /// Owner shard of each refinement tree, indexed by initial element.
  std::vector<part::PartId> ownership_;
  /// Assignment staged by apply_plan, adopted by commit.
  std::optional<std::vector<part::PartId>> staged_;
};

using Shard2D = ShardT<pared::TransientRun>;
using Shard3D = ShardT<pared::TransientRun3D>;

extern template class ShardT<pared::TransientRun>;
extern template class ShardT<pared::TransientRun3D>;

}  // namespace pnr::fed
