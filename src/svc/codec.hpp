#pragma once
// pnr::svc payload codecs: the typed bodies carried inside wire frames.
// Encoding extends par::Writer (the message-passing serializer) so the
// service and the rank simulator share one byte layout; decoding runs on
// par::TryReader and NEVER aborts — malformed, truncated or
// limit-exceeding input comes back as nullopt with no partial state.
// Structures that feed a session (meshes, graphs, assignments) are
// validated here down to what the downstream constructors PNR_REQUIRE,
// then audited again with pnr::check; bulk range scans run on the
// pnr::exec pool (deterministic at any width).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/check_fed.hpp"
#include "graph/csr.hpp"
#include "mesh/simplex_mesh.hpp"
#include "pared/session.hpp"
#include "pared/workloads.hpp"
#include "parallel/serialize.hpp"
#include "partition/partition.hpp"
#include "svc/wire.hpp"

namespace pnr::svc {

// ---- meshes -----------------------------------------------------------------

/// A mesh as it crosses the wire: flat vertex coordinates plus element
/// connectivity (the .node/.ele content), no refinement history.
struct FlatMesh {
  std::int32_t dim = 2;               ///< 2 (triangles) or 3 (tets)
  std::vector<double> coords;         ///< n × dim, row-major
  std::vector<std::int32_t> elems;    ///< m × (dim+1), 0-based
};

void encode_mesh(par::Writer& w, const FlatMesh& m);
std::optional<FlatMesh> decode_mesh(par::TryReader& r, const Limits& limits);

/// Current leaves of an adapted mesh as a FlatMesh (alive vertices densely
/// renumbered) — the export/upload counterpart of mesh::write_triangle_files.
template <typename Mesh>
FlatMesh flatten_mesh(const Mesh& mesh);

/// Build a finalized 0-level Mesh (TriMesh or TetMesh; `m.dim` must be its
/// kDim). Everything mesh construction PNR_REQUIREs (index ranges, distinct
/// corners, nonzero measure, manifold edges/faces) is pre-validated;
/// failure returns nullopt with `why` set.
template <typename Mesh>
std::optional<Mesh> build_mesh(const FlatMesh& m, std::string* why = nullptr);

// ---- graphs -----------------------------------------------------------------

void encode_graph(par::Writer& w, const graph::Graph& g);

/// Decode + fully validate a CSR graph (shape, ranges, symmetry via
/// check_graph, nonnegative weights). nullopt on any violation.
std::optional<graph::Graph> decode_graph(par::TryReader& r,
                                         const Limits& limits,
                                         std::string* why = nullptr);

// ---- assignments and reports ------------------------------------------------

void encode_assignment(par::Writer& w, const std::vector<part::PartId>& a);
std::optional<std::vector<part::PartId>> decode_assignment(
    par::TryReader& r, std::uint64_t max_size);

void encode_step_report(par::Writer& w, const pared::StepReport& report);
std::optional<pared::StepReport> decode_step_report(par::TryReader& r);

// ---- session specs ----------------------------------------------------------

enum class WorkloadKind : std::uint8_t {
  kTransient2D = 0,
  kCorner2D = 1,
  kCorner3D = 2,
  kTransient3D = 3,
};

/// kOpCreateWorkload payload: which paper workload to instantiate
/// server-side, the repartitioning strategy driving it, and the knobs that
/// make the run bit-reproducible against an in-process session.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kTransient2D;
  pared::Strategy strategy = pared::Strategy::kPNR;
  std::int32_t parts = 8;
  std::uint64_t session_seed = 1;
  pared::TransientOptions transient;  ///< transient kinds (incl. mesh seed)
  pared::CornerOptions corner;        ///< corner kinds
  std::int32_t corner_grid_n = 0;     ///< 0 = the kind's default
  double alpha = 0.1;                 ///< core::PnrOptions for kPNR
  double beta = 0.8;
  /// engine::Kind wire value for the kPNR strategy; kEngineDefault asks the
  /// server to substitute its configured default.
  std::uint8_t engine = kEngineDefault;
};

void encode_workload_spec(par::Writer& w, const WorkloadSpec& spec);
std::optional<WorkloadSpec> decode_workload_spec(par::TryReader& r,
                                                 const Limits& limits);

/// Fixed byte offset of WorkloadSpec::engine inside an encoded spec (every
/// earlier field is fixed width; the engine byte is encoded last).
inline constexpr std::size_t kWorkloadSpecEngineOffset =
    1 + 1 + 4 + 8 +              // kind, strategy, parts, session_seed
    4 + 8 + 8 + 8 + 8 + 4 + 4 + 8 +  // transient
    8 + 8 + 4 + 8 +              // corner
    4 + 8 + 8;                   // corner_grid_n, alpha, beta

/// Shared head of kOpCreateMesh / kOpCreateGraph payloads.
struct CreateHead {
  pared::Strategy strategy = pared::Strategy::kPNR;
  std::int32_t parts = 8;
  std::uint64_t session_seed = 1;
  double alpha = 0.1;
  double beta = 0.8;
  /// engine::Kind wire value (kEngineDefault = server default). Encoded
  /// last, at byte offset kCreateHeadEngineOffset of the payload.
  std::uint8_t engine = kEngineDefault;
};

/// Fixed byte offset of CreateHead::engine inside an encoded create
/// payload: u8 strategy + i32 parts + u64 seed + f64 alpha + f64 beta.
inline constexpr std::size_t kCreateHeadEngineOffset = 1 + 4 + 8 + 8 + 8;

void encode_create_head(par::Writer& w, const CreateHead& head);
std::optional<CreateHead> decode_create_head(par::TryReader& r,
                                             const Limits& limits);

// ---- federation (docs/FEDERATION.md) ----------------------------------------

/// kOpFedAttach payload: the replicated workload spec plus this daemon's
/// shard slot. Only the transient kinds federate — replication needs a
/// deterministic server-side workload, so uploaded meshes/graphs cannot.
/// The spec is encoded first, so its engine byte sits at the same
/// kWorkloadSpecEngineOffset the checkpoint canonicalizer expects.
struct FedAttach {
  WorkloadSpec spec;
  std::uint16_t rank = 0;
  std::uint16_t count = 1;
};

void encode_fed_attach(par::Writer& w, const FedAttach& a);
/// Decode + validate: full WorkloadSpec bounds (as kOpCreateWorkload),
/// transient kind only, count in [1, max_parts], rank < count, and
/// spec.parts == count (shards are the parts).
std::optional<FedAttach> decode_fed_attach(par::TryReader& r,
                                           const Limits& limits,
                                           std::string* why = nullptr);

/// kOpFedInterface success reply: one shard's coarse-graph slice.
void encode_fed_report(par::Writer& w, const check::FedShardReport& rep);
std::optional<check::FedShardReport> decode_fed_report(par::TryReader& r,
                                                       const Limits& limits);

/// One migrating refinement-history subtree on the wire.
struct FedTree {
  std::int32_t dest = 0;   ///< destination shard (kOpFedPlan replies only)
  mesh::ElemIdx root = 0;  ///< initial element rooting the subtree
  std::vector<std::uint8_t> payload;  ///< fed::pack_subtree bytes
};

/// kOpFedPlan success reply: the leaves this plan moves off the shard and
/// the packed subtrees, ready to be relayed to their destinations.
struct FedPlanReply {
  std::int64_t elements_out = 0;
  std::vector<FedTree> outgoing;
};

void encode_fed_plan_reply(par::Writer& w, const FedPlanReply& rep);
std::optional<FedPlanReply> decode_fed_plan_reply(par::TryReader& r,
                                                  const Limits& limits);

/// kOpFedExchange request body (after the u32 session id): the source
/// shard and the subtrees it shipped here (dest fields unused).
struct FedExchange {
  std::int32_t src = 0;
  std::vector<FedTree> trees;
};

void encode_fed_exchange(par::Writer& w, const FedExchange& ex);
std::optional<FedExchange> decode_fed_exchange(par::TryReader& r,
                                               const Limits& limits);

}  // namespace pnr::svc
