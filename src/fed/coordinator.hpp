#pragma once
// Federation coordinator: drives federated repartition rounds across N live
// pnr_serve daemons (docs/FEDERATION.md). The coordinator owns its own
// *replica* of the transient workload plus the one pared::Session that runs
// the partitioner — daemons never partition, they only adapt, report, pack
// and verify. Each round():
//
//   1. advance the replica and every daemon (kOpFedAdvance), cross-checking
//      element counts and replica mesh fingerprints — divergence is fatal
//      the round it happens;
//   2. gather every shard's interface report (kOpFedInterface), audit the
//      union with check::check_fed_reports, and assemble the federated
//      coarse graph from owned vertices + primary edges;
//   3. swap that graph into the session (adopt_federated_graph — it must
//      equal the replica's own refresh bit for bit, which is the federation
//      equivalence claim) and step the session on the replica mesh;
//   4. push the resulting coarse assignment to every daemon (kOpFedPlan),
//      collecting the serialized subtrees each shard must ship;
//   5. relay subtrees to their destinations (kOpFedExchange), where each
//      receiving shard verifies them against its replica;
//   6. commit the ownership flip everywhere (kOpFedCommit) and audit the
//      barrier with check::check_fed_commit.
//
// Because the adopted graph is proven byte-equal to what the session would
// have built alone, the session's assignment trajectory is bitwise
// identical to the single-process pared::Session run — bench_federation
// and scripts/fed_gate.py hard-gate exactly that.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check/report.hpp"
#include "engine/engine.hpp"
#include "fed/migrate.hpp"
#include "pared/session.hpp"
#include "pared/workloads.hpp"
#include "svc/client.hpp"
#include "svc/codec.hpp"
#include "util/fnv.hpp"

namespace pnr::fed {

struct CoordinatorOptions {
  /// 0 = trust the shards (skip the pnr::check validators); >= 1 audits the
  /// interface reports before partitioning and the commit barrier after the
  /// ownership flip, every round.
  int check_level = 1;
};

/// One federated round's outcome. !ok means the federation is broken —
/// `why` carries the first fatal diagnosis and `violations` any validator
/// findings; the caller should finish() and stop, not retry.
struct RoundResult {
  bool ok = false;
  std::string why;
  int step = 0;
  double t = 0.0;
  std::int64_t elements = 0;   ///< replica leaves after the adaptation
  std::int64_t refined = 0;
  std::int64_t coarsened = 0;
  std::int64_t trees_moved = 0;
  std::int64_t elements_moved = 0;  ///< leaves changing owner
  std::int64_t payload_bytes = 0;   ///< serialized subtree bytes relayed
  std::uint64_t assign_fp = 0;      ///< digest of the adopted assignment
  std::uint64_t mesh_fp = 0;        ///< replica digest after the adaptation
  pared::StepReport report;         ///< the session's own step measures
  std::vector<check::Violation> violations;
};

template <typename Run>
class CoordinatorT {
 public:
  using Mesh = typename Run::Mesh;

  /// `daemons` are connected clients, one per shard rank, borrowed for the
  /// coordinator's lifetime (the caller owns connections and pumps). The
  /// spec must be the matching transient kind with strategy kPNR and
  /// parts == daemons.size(); `engine` is the *resolved* backend — passing
  /// kEngineDefault through would let each daemon substitute its own.
  CoordinatorT(svc::WorkloadSpec spec, engine::Kind engine,
               std::vector<svc::Client*> daemons,
               CoordinatorOptions options = {});

  /// Attach every daemon as shard rank i of N (kOpFedAttach) and cross-check
  /// each daemon's initial replica fingerprint against the coordinator's.
  bool attach(std::string* why = nullptr);

  /// One federated adaptation + repartition round (the six phases above).
  RoundResult round();

  bool attached() const { return attached_; }
  bool finished() const { return replica_.done(); }
  int rounds() const { return rounds_; }
  /// Running digest chaining every round's (assign_fp, mesh_fp) — equal
  /// across any shard count iff the trajectories are bitwise identical.
  std::uint64_t trajectory_fingerprint() const { return trajectory_fp_; }
  const pared::Session<Mesh>& session() const { return session_; }
  const Run& replica() const { return replica_; }
  const std::vector<std::uint32_t>& sessions() const { return sessions_; }

  /// Graceful teardown. round() is synchronous, so by the time finish()
  /// runs no migration round is in flight — it closes every shard session
  /// and, with `shutdown_daemons`, sends each distinct daemon kOpShutdown
  /// (the server quiesces its shard queues before acking). Idempotent.
  bool finish(bool shutdown_daemons, std::string* why = nullptr);

 private:
  svc::WorkloadSpec spec_;
  engine::Kind engine_;
  std::vector<svc::Client*> daemons_;
  CoordinatorOptions options_;
  Run replica_;
  pared::Session<Mesh> session_;
  std::vector<std::uint32_t> sessions_;  ///< shard session id per rank
  bool attached_ = false;
  int rounds_ = 0;
  std::uint64_t trajectory_fp_ = util::kFnvSeed;
};

using Coordinator2D = CoordinatorT<pared::TransientRun>;
using Coordinator3D = CoordinatorT<pared::TransientRun3D>;

extern template class CoordinatorT<pared::TransientRun>;
extern template class CoordinatorT<pared::TransientRun3D>;

}  // namespace pnr::fed
