#include "svc/registry.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <variant>

#include "check/check.hpp"
#include "fed/shard.hpp"
#include "engine/engine.hpp"
#include "graph/algorithms.hpp"
#include "mesh/dual.hpp"
#include "util/mutex.hpp"
#include "util/prof.hpp"

namespace pnr::svc {

namespace {

/// Server-side paper workload (pared::TransientRunT or CornerSeriesT): the
/// workload object owns the mesh and the adaptation policy; the client only
/// sequences advance/step.
template <typename Run>
struct WorkloadState {
  static constexpr bool kTransient = requires(const Run& run) { run.done(); };
  static constexpr const char* kName =
      kTransient ? (Run::Mesh::kDim == 2 ? "transient2d" : "transient3d")
                 : (Run::Mesh::kDim == 2 ? "corner2d" : "corner3d");
  Run run;
  pared::Session<typename Run::Mesh> session;
  const auto& mesh() const { return run.mesh(); }
  auto& mutable_mesh() { return run.mutable_mesh(); }
};

/// Uploaded-mesh session: the service owns the mesh and drives it only
/// through validated kOpAdapt / kOpStep requests.
template <typename Mesh>
struct MeshState {
  static constexpr const char* kName = Mesh::kDim == 2 ? "mesh2d" : "mesh3d";
  Mesh uploaded;
  pared::Session<Mesh> session;
  const Mesh& mesh() const { return uploaded; }
  Mesh& mutable_mesh() { return uploaded; }
};

/// Federated shard session (docs/FEDERATION.md): one daemon's slice of a
/// socket federation. The shard owns its replicated workload run and the
/// tree-ownership vector; a remote coordinator sequences the round ops.
template <typename Run>
struct FedState {
  static constexpr const char* kName =
      Run::Mesh::kDim == 2 ? "fed2d" : "fed3d";
  fed::ShardT<Run> shard;
  const auto& mesh() const { return shard.run().mesh(); }
};

/// Partition-only session over an uploaded weighted graph (the PNR coarse
/// graph of some external mesh).
struct GraphState {
  static constexpr const char* kName = "graph";
  graph::Graph g;
  core::PnrOptions options;
  part::Partition partition;
  util::Rng rng;
  core::RepartitionStats last_stats;
  bool has_stats = false;
  /// Session-default backend; per-request override via the repartition op.
  engine::Kind engine = engine::Kind::kMlkl;
  /// Optional vertex coordinates uploaded with the graph (n×dim, row
  /// major); empty with dim == 0 when the client sent none, in which case
  /// the geometric engines are unavailable for this session.
  std::vector<double> coords;
  int dim = 0;
};

using Body =
    std::variant<WorkloadState<pared::TransientRun>,
                 WorkloadState<pared::TransientRun3D>,
                 WorkloadState<pared::CornerSeries2D>,
                 WorkloadState<pared::CornerSeries3D>,
                 MeshState<mesh::TriMesh>, MeshState<mesh::TetMesh>,
                 GraphState, FedState<pared::TransientRun>,
                 FedState<pared::TransientRun3D>>;

// The kind of a session body, one test per kind.
template <typename T>
inline constexpr bool kIsWorkloadState = false;
template <typename Run>
inline constexpr bool kIsWorkloadState<WorkloadState<Run>> = true;
template <typename T>
inline constexpr bool kIsMeshState = false;
template <typename Mesh>
inline constexpr bool kIsMeshState<MeshState<Mesh>> = true;
/// The federated shard states — the ones whose lifecycle is the fed round
/// protocol rather than the advance/step session loop.
template <typename T>
inline constexpr bool kIsFedState = false;
template <typename Run>
inline constexpr bool kIsFedState<FedState<Run>> = true;
/// The states a pared::Session steps: workloads and uploaded meshes.
template <typename T>
inline constexpr bool kHasSession = kIsWorkloadState<T> || kIsMeshState<T>;

const char* kind_name(const Body& body) {
  return std::visit([](const auto& s) { return s.kName; }, body);
}

/// Session size: mesh leaves, or graph vertices.
std::int64_t body_elements(const Body& body) {
  return std::visit(
      [](const auto& s) -> std::int64_t {
        if constexpr (std::is_same_v<std::decay_t<decltype(s)>, GraphState>)
          return s.g.num_vertices();
        else
          return s.mesh().num_leaves();
      },
      body);
}

/// Call `f` with the std::type_identity of the workload a WorkloadKind
/// names.
template <typename F>
decltype(auto) with_workload(WorkloadKind kind, F&& f) {
  switch (kind) {
    case WorkloadKind::kTransient2D:
      return f(std::type_identity<pared::TransientRun>{});
    case WorkloadKind::kTransient3D:
      return f(std::type_identity<pared::TransientRun3D>{});
    case WorkloadKind::kCorner2D:
      return f(std::type_identity<pared::CornerSeries2D>{});
    case WorkloadKind::kCorner3D:
      break;
  }
  return f(std::type_identity<pared::CornerSeries3D>{});
}

/// Why `spec` may not build workload Run, judged from the spec alone: a
/// TransientRun refines toward its depth cap *inside its constructor*,
/// before any post-construction max_elements check can run. Bisection
/// doubles the leaf count per level, so full refinement of every root is
/// bounded by roots << max_level; Rivara conformity closure can overshoot
/// the mark cap by about one level, hence the +1 slack. Keeping that
/// supremum under max_elements bounds both the memory and the constructor
/// CPU (each pre-adaptation round visits at most that many leaves). The
/// codec's clamps (grid_n <= 128, max_level <= 16) keep the shift far from
/// 64-bit overflow.
template <typename Run>
std::optional<std::string> growth_refusal(const WorkloadSpec& spec,
                                          const Limits& limits) {
  if constexpr (WorkloadState<Run>::kTransient) {
    const std::int64_t n = spec.transient.grid_n;
    const std::int64_t roots =
        Run::Mesh::kDim == 2 ? 2 * n * n : 6 * n * n * n;
    if ((roots << (spec.transient.max_level + 1)) > limits.max_elements)
      return "fully refined mesh would exceed max_elements";
  } else if constexpr (Run::Mesh::kDim == 3) {
    if (spec.corner_grid_n > 24) return "grid_n <= 24";
  }
  return std::nullopt;
}

/// The workload `spec` describes.
template <typename Run>
Run make_run(const WorkloadSpec& spec) {
  if constexpr (WorkloadState<Run>::kTransient)
    return Run(spec.transient);
  else
    return Run(spec.corner_grid_n ? spec.corner_grid_n : Run::kDefaultGrid,
               spec.corner);
}

/// Registry sessions defer the metrics tail of step(): the step reply
/// carries the cheap fields (elements, migrated), and kOpGetMetrics computes
/// the rest on demand (off the coarse graph for PNR, on the fine dual for
/// the fine-graph strategies). get_metrics is not logged, so deferral is
/// replay-neutral for checkpoints.
template <typename S>
S deferred(S session) {
  session.set_defer_metrics(true);
  return session;
}

bool is_mutating_op(std::uint16_t op) {
  // kOpFedExchange is deliberately absent: ingest is pure validation (the
  // replica already holds every element), so it never enters the oplog and
  // a checkpoint replay of advance/plan/commit reconstructs the shard.
  return op == kOpAdvance || op == kOpStep || op == kOpAdapt ||
         op == kOpRepartition || op == kOpFedAdvance || op == kOpFedPlan ||
         op == kOpFedCommit;
}

Reply make_error(Err code, std::string detail) {
  prof::count("svc.errors");
  return Reply{kTypeError, encode_error(code, std::move(detail))};
}

Reply make_ok(std::uint16_t op, Bytes payload) {
  return Reply{static_cast<std::uint16_t>(op | kReplyBit),
               std::move(payload)};
}

/// Substitute the server default for kEngineDefault. The wire byte is
/// validated by the codecs, so the cast is safe.
engine::Kind resolve_engine(std::uint8_t wire, const Limits& limits) {
  return static_cast<engine::Kind>(wire == kEngineDefault
                                       ? limits.default_engine
                                       : wire);
}

bool geometric_engine(engine::Kind k) {
  return engine::repartitioner(k).needs_coords();
}

}  // namespace

struct Registry::SessionState {
  std::uint32_t id = 0;
  pared::Strategy strategy = pared::Strategy::kPNR;
  /// Resolved session-default engine (never kEngineDefault), reported by
  /// kOpGetMetrics.
  engine::Kind engine = engine::Kind::kMlkl;
  std::int32_t parts = 1;
  Body body;
  std::int64_t ops_applied = 0;
  std::optional<pared::StepReport> last_report;

  /// Mid-restore marker: the session exists (its id is allocated, it counts
  /// toward max_sessions) but find() pretends it does not — except for the
  /// restore replay itself — until the replay completes. Guarded by the
  /// owning Shard's mutex (a cross-object guard PNR_GUARDED_BY cannot
  /// express); every read/write happens inside a shard-locked section.
  bool hidden = false;
  /// body_elements(body), maintained by every element-changing op so
  /// list_sessions can report sizes without touching a body that a shard
  /// worker may be mutating.
  std::atomic<std::int64_t> cached_elements{0};

  // Event-sourced checkpoint: the create request plus every mutating op's
  // argument bytes (session id stripped). Deterministic replay rebuilds the
  // session bit-for-bit.
  std::uint16_t create_op = 0;
  Bytes create_payload;
  std::vector<std::pair<std::uint16_t, Bytes>> oplog;
  bool checkpoint_ok = true;

  /// A new session from its create request. The create record keeps
  /// `payload` with the engine byte at `engine_offset` canonicalized to the
  /// resolved engine, so a checkpoint replays to the same backend on a
  /// server with a different --default-engine.
  SessionState(Body&& b, pared::Strategy s, engine::Kind eng,
               std::int32_t p, std::uint16_t op, const Bytes& payload,
               std::size_t engine_offset)
      : strategy(s),
        engine(eng),
        parts(p),
        body(std::move(b)),
        create_op(op),
        create_payload(payload) {
    create_payload[engine_offset] = static_cast<std::uint8_t>(eng);
  }
};

/// One shard: a mutex-guarded slice of the session map. The mutex guards
/// only the map structure and the hidden flags — a session's body is owned
/// by whichever single request is operating on it.
struct Registry::Shard {
  mutable util::Mutex mutex;
  std::map<std::uint32_t, std::unique_ptr<SessionState>> sessions
      PNR_GUARDED_BY(mutex);
};

const char* op_span_name(std::uint16_t op) {
  switch (op) {
    case kOpPing: return "svc.op.ping";
    case kOpCreateWorkload: return "svc.op.create_workload";
    case kOpCreateMesh: return "svc.op.create_mesh";
    case kOpCreateGraph: return "svc.op.create_graph";
    case kOpAdvance: return "svc.op.advance";
    case kOpStep: return "svc.op.step";
    case kOpAdapt: return "svc.op.adapt";
    case kOpRepartition: return "svc.op.repartition";
    case kOpGetMetrics: return "svc.op.get_metrics";
    case kOpGetAssignment: return "svc.op.get_assignment";
    case kOpCheckpoint: return "svc.op.checkpoint";
    case kOpRestore: return "svc.op.restore";
    case kOpCloseSession: return "svc.op.close_session";
    case kOpListSessions: return "svc.op.list_sessions";
    case kOpShutdown: return "svc.op.shutdown";
    case kOpFedAttach: return "svc.op.fed_attach";
    case kOpFedAdvance: return "svc.op.fed_advance";
    case kOpFedInterface: return "svc.op.fed_interface";
    case kOpFedPlan: return "svc.op.fed_plan";
    case kOpFedExchange: return "svc.op.fed_exchange";
    case kOpFedCommit: return "svc.op.fed_commit";
    default: return "svc.op.unknown";
  }
}

Registry::Registry(Limits limits, int shards) : limits_(limits) {
  // A misconfigured default must never make resolve_engine cast garbage.
  if (!engine::valid_kind(limits_.default_engine))
    limits_.default_engine = static_cast<std::uint8_t>(engine::Kind::kMlkl);
  shards_.reserve(static_cast<std::size_t>(std::max(1, shards)));
  for (int s = 0; s < std::max(1, shards); ++s)
    shards_.push_back(std::make_unique<Shard>());
}
Registry::~Registry() = default;

bool Registry::is_session_op(std::uint16_t op) {
  switch (op) {
    case kOpAdvance:
    case kOpStep:
    case kOpAdapt:
    case kOpRepartition:
    case kOpGetMetrics:
    case kOpGetAssignment:
    case kOpCheckpoint:
    case kOpCloseSession:
    case kOpFedAdvance:
    case kOpFedInterface:
    case kOpFedPlan:
    case kOpFedExchange:
    case kOpFedCommit:
      return true;
    default:
      return false;
  }
}

bool Registry::is_queued_control_op(std::uint16_t op) {
  switch (op) {
    case kOpCreateWorkload:
    case kOpCreateMesh:
    case kOpCreateGraph:
    case kOpRestore:
    case kOpFedAttach:
      return true;
    default:
      return false;
  }
}

std::optional<std::uint32_t> Registry::peek_session(const Bytes& payload) {
  if (payload.size() < 4) return std::nullopt;
  return static_cast<std::uint32_t>(payload[0]) |
         (static_cast<std::uint32_t>(payload[1]) << 8) |
         (static_cast<std::uint32_t>(payload[2]) << 16) |
         (static_cast<std::uint32_t>(payload[3]) << 24);
}

Reply Registry::handle(std::uint16_t op, const Bytes& payload) {
  prof::count("svc.requests");
  prof::Span span(op_span_name(op));
  if (shutting_down() && op != kOpPing)
    return make_error(Err::kShuttingDown, "server is shutting down");
  return dispatch(op, payload);
}

Reply Registry::dispatch(std::uint16_t op, const Bytes& payload) {
  switch (op) {
    case kOpPing: return op_ping(payload);
    case kOpCreateWorkload: return op_create_workload(payload);
    case kOpCreateMesh: return op_create_mesh(payload);
    case kOpCreateGraph: return op_create_graph(payload);
    case kOpAdvance: return op_advance(payload);
    case kOpStep: return op_step(payload);
    case kOpAdapt: return op_adapt(payload);
    case kOpRepartition: return op_repartition(payload);
    case kOpGetMetrics: return op_get_metrics(payload);
    case kOpGetAssignment: return op_get_assignment(payload);
    case kOpCheckpoint: return op_checkpoint(payload);
    case kOpRestore: return op_restore(payload);
    case kOpCloseSession: return op_close_session(payload);
    case kOpListSessions: return op_list_sessions(payload);
    case kOpShutdown: return op_shutdown(payload);
    case kOpFedAttach: return op_fed_attach(payload);
    case kOpFedAdvance: return op_fed_advance(payload);
    case kOpFedInterface: return op_fed_interface(payload);
    case kOpFedPlan: return op_fed_plan(payload);
    case kOpFedExchange: return op_fed_exchange(payload);
    case kOpFedCommit: return op_fed_commit(payload);
    default:
      return make_error(Err::kBadOp,
                        "unknown op " + std::to_string(op));
  }
}

Registry::SessionState* Registry::find(std::uint32_t id) {
  // The returned pointer stays valid without the shard lock: the only
  // erasers of a visible session are ops on that same session (close, the
  // advance/adapt overflow path), and the concurrency contract allows at
  // most one in-flight request per session.
  Shard& sh = *shards_[static_cast<std::size_t>(shard_of(id))];
  util::MutexLock lock(sh.mutex);
  const auto it = sh.sessions.find(id);
  if (it == sh.sessions.end()) return nullptr;
  SessionState* st = it->second.get();
  if (st->hidden && id != restoring_id_.load(std::memory_order_relaxed))
    return nullptr;
  return st;
}

bool Registry::erase_session(std::uint32_t id, bool even_hidden) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_of(id))];
  util::MutexLock lock(sh.mutex);
  const auto it = sh.sessions.find(id);
  if (it == sh.sessions.end()) return false;
  if (it->second->hidden && !even_hidden) return false;
  sh.sessions.erase(it);
  num_sessions_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void Registry::log_op(SessionState& st, std::uint16_t op,
                      const Bytes& payload) {
  ++st.ops_applied;
  if (!st.checkpoint_ok) return;
  if (st.oplog.size() >= limits_.max_oplog_entries) {
    st.checkpoint_ok = false;
    st.oplog.clear();
    st.oplog.shrink_to_fit();
    return;
  }
  // Every mutating payload starts with the u32 session id; the log keeps
  // only the arguments so a restore can re-target them at the new id.
  Bytes args(payload.begin() + 4, payload.end());
  st.oplog.emplace_back(op, std::move(args));
}

std::uint32_t Registry::register_session(std::unique_ptr<SessionState> st) {
  const std::uint32_t id = next_id_++;
  st->id = id;
  st->hidden = hide_next_create_;
  st->cached_elements.store(body_elements(st->body),
                            std::memory_order_relaxed);
  Shard& sh = *shards_[static_cast<std::size_t>(shard_of(id))];
  util::MutexLock lock(sh.mutex);
  sh.sessions.emplace(id, std::move(st));
  num_sessions_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---- ops --------------------------------------------------------------------

Reply Registry::op_ping(const Bytes& payload) {
  return make_ok(kOpPing, payload);
}

Reply Registry::op_create_workload(const Bytes& payload) {
  par::TryReader r(payload);
  const auto spec = decode_workload_spec(r, limits_);
  if (!spec || !r.done())
    return make_error(Err::kBadPayload, "malformed workload spec");
  if (num_sessions() >= limits_.max_sessions)
    return make_error(Err::kLimitExceeded, "session limit reached");

  core::PnrOptions popt;
  popt.alpha = spec->alpha;
  popt.beta = spec->beta;
  const engine::Kind eng = resolve_engine(spec->engine, limits_);

  std::optional<Body> body;
  std::int64_t elements = 0;
  const std::optional<Reply> refused = with_workload(
      spec->kind,
      [&]<typename Run>(std::type_identity<Run>) -> std::optional<Reply> {
        using State = WorkloadState<Run>;
        if (const auto why = growth_refusal<Run>(*spec, limits_))
          return make_error(Err::kLimitExceeded,
                            std::string(State::kName) + ": " + *why);
        State state{make_run<Run>(*spec),
                    deferred(pared::Session<typename Run::Mesh>(
                        spec->strategy, spec->parts, spec->session_seed,
                        popt, eng))};
        elements = state.mesh().num_leaves();
        if (elements > limits_.max_elements)
          return make_error(Err::kLimitExceeded,
                            "workload mesh exceeds max_elements");
        // Level-0 elements never disappear (coarsening stops at the
        // roots), so parts <= roots guarantees check_partition's "no empty
        // subset" invariant for the whole session lifetime.
        if (spec->parts > state.mesh().num_initial_elements())
          return make_error(Err::kBadPayload,
                            "parts exceeds the workload's level-0 elements");
        body.emplace(std::move(state));
        return std::nullopt;
      });
  if (refused) return *refused;

  const std::uint32_t id = register_session(std::make_unique<SessionState>(
      std::move(*body), spec->strategy, eng, spec->parts, kOpCreateWorkload,
      payload, kWorkloadSpecEngineOffset));

  par::Writer w;
  w.put(id);
  w.put(elements);
  return make_ok(kOpCreateWorkload, w.take());
}

Reply Registry::op_create_mesh(const Bytes& payload) {
  par::TryReader r(payload);
  const auto head = decode_create_head(r, limits_);
  if (!head) return make_error(Err::kBadPayload, "malformed create head");
  const auto flat = decode_mesh(r, limits_);
  if (!flat || !r.done())
    return make_error(Err::kBadPayload, "malformed mesh payload");
  if (num_sessions() >= limits_.max_sessions)
    return make_error(Err::kLimitExceeded, "session limit reached");

  core::PnrOptions popt;
  popt.alpha = head->alpha;
  popt.beta = head->beta;
  const engine::Kind eng = resolve_engine(head->engine, limits_);

  std::optional<Body> body;
  std::string why;
  std::int64_t elements = 0;
  // Screens the built mesh (a std::optional<TriMesh/TetMesh>) and admits it
  // as the session body; returns the error reply on refusal.
  const auto admit = [&](auto mesh) -> std::optional<Reply> {
    if (!mesh) {
      const bool audit = why == "mesh audit failed";
      return make_error(audit ? Err::kAuditFailed : Err::kBadPayload, why);
    }
    if (!graph::is_connected(mesh::fine_dual_graph(*mesh).graph))
      return make_error(Err::kBadPayload, "mesh dual graph is disconnected");
    elements = mesh->num_leaves();
    if (head->parts > elements)
      return make_error(Err::kBadPayload, "parts exceeds element count");
    using Mesh = typename decltype(mesh)::value_type;
    body.emplace(MeshState<Mesh>{
        std::move(*mesh),
        deferred(pared::Session<Mesh>(head->strategy, head->parts,
                                      head->session_seed, popt, eng))});
    return std::nullopt;
  };
  const auto refused =
      flat->dim == 2 ? admit(build_mesh<mesh::TriMesh>(*flat, &why))
                     : admit(build_mesh<mesh::TetMesh>(*flat, &why));
  if (refused) return *refused;

  const std::uint32_t id = register_session(std::make_unique<SessionState>(
      std::move(*body), head->strategy, eng, head->parts, kOpCreateMesh,
      payload, kCreateHeadEngineOffset));

  par::Writer w;
  w.put(id);
  w.put(elements);
  return make_ok(kOpCreateMesh, w.take());
}

Reply Registry::op_create_graph(const Bytes& payload) {
  par::TryReader r(payload);
  const auto head = decode_create_head(r, limits_);
  if (!head) return make_error(Err::kBadPayload, "malformed create head");
  std::string why;
  auto g = decode_graph(r, limits_, &why);
  if (!g) {
    const bool audit = why == "graph audit failed";
    return make_error(audit ? Err::kAuditFailed : Err::kBadPayload,
                      why.empty() ? "malformed graph payload" : why);
  }
  // Optional coordinate block for the geometric engines: u8 dim (0 = none)
  // followed by the n×dim centroid vector.
  const auto cdim = r.get<std::uint8_t>();
  auto coords = r.get_vector<double>(
      static_cast<std::uint64_t>(limits_.max_graph_vertices) * 3);
  if (!cdim || !coords || !r.done() ||
      (*cdim != 0 && *cdim != 2 && *cdim != 3))
    return make_error(Err::kBadPayload, "malformed graph payload");
  if (coords->size() != static_cast<std::size_t>(g->num_vertices()) * *cdim)
    return make_error(Err::kBadPayload,
                      "coordinate block does not match vertex count");
  for (const double c : *coords)
    if (!std::isfinite(c))
      return make_error(Err::kBadPayload, "non-finite vertex coordinate");
  if (num_sessions() >= limits_.max_sessions)
    return make_error(Err::kLimitExceeded, "session limit reached");
  if (head->strategy != pared::Strategy::kPNR)
    return make_error(Err::kBadPayload,
                      "graph sessions support strategy pnr only");
  if (head->parts > g->num_vertices())
    return make_error(Err::kBadPayload, "parts exceeds vertex count");
  if (!graph::is_connected(*g))
    return make_error(Err::kBadPayload, "uploaded graph is disconnected");
  // PNR's weights are counts; zero-weight vertices or edges would let a
  // hostile upload fake balance.
  check::GraphCheckOptions gopt;
  gopt.require_positive_vertex_weights = true;
  gopt.require_positive_edge_weights = true;
  if (const auto report = check::check_graph(*g, gopt); !report.ok())
    return make_error(Err::kAuditFailed, "graph audit failed");

  core::PnrOptions popt;
  popt.alpha = head->alpha;
  popt.beta = head->beta;
  const engine::Kind eng = resolve_engine(head->engine, limits_);
  if (geometric_engine(eng) && *cdim == 0)
    return make_error(Err::kBadPayload,
                      "geometric engine requires a coordinate block");
  util::Rng rng(head->session_seed);
  engine::Input in;
  in.graph = &*g;
  in.coords = *coords;
  in.dim = *cdim;
  in.previous = nullptr;
  in.parts = head->parts;
  in.options = popt;
  in.rng = &rng;
  part::Partition partition =
      engine::repartitioner(eng).run(in, /*stats=*/nullptr);
  const std::int64_t n = g->num_vertices();

  GraphState graph_state{std::move(*g), popt, std::move(partition),
                         std::move(rng), core::RepartitionStats{}, false,
                         eng, std::move(*coords), *cdim};
  const std::uint32_t id = register_session(std::make_unique<SessionState>(
      Body(std::move(graph_state)), head->strategy, eng, head->parts,
      kOpCreateGraph, payload, kCreateHeadEngineOffset));

  par::Writer w;
  w.put(id);
  w.put(n);
  return make_ok(kOpCreateGraph, w.take());
}

Reply Registry::op_advance(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload, "advance expects {u32 session}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  struct Out {
    std::int64_t refined = 0;
    std::int64_t coarsened = 0;
    double position = 0.0;  ///< time (transient) or level (corner)
  };
  std::optional<Out> out;
  std::optional<Err> failed;
  std::string detail;
  std::visit(
      [&](auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (!kIsWorkloadState<T>) {
          failed = Err::kBadState;
          detail = "session has no server-side workload";
        } else if constexpr (T::kTransient) {
          if (s.run.done()) {
            failed = Err::kBadState;
            detail = "workload already finished";
            return;
          }
          const auto info = s.run.advance();
          out = Out{info.bisections, info.merges, info.t};
        } else {
          const auto refined = s.run.advance();
          out = Out{refined, 0, static_cast<double>(s.run.level())};
        }
      },
      st->body);
  if (failed) return make_error(*failed, detail);

  const std::int64_t elements = body_elements(st->body);
  if (elements > limits_.max_elements) {
    // The mesh has outgrown the server; the session cannot be rolled back,
    // so it is destroyed rather than left over-limit. (A hidden mid-restore
    // session survives here; the restore replay erases it on this error.)
    erase_session(*id, /*even_hidden=*/false);
    return make_error(Err::kLimitExceeded,
                      "adapted mesh exceeds max_elements; session closed");
  }
  st->cached_elements.store(elements, std::memory_order_relaxed);
  log_op(*st, kOpAdvance, payload);

  par::Writer w;
  w.put(elements);
  w.put(out->refined);
  w.put(out->coarsened);
  w.put(out->position);
  return make_ok(kOpAdvance, w.take());
}

Reply Registry::op_step(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload, "step expects {u32 session}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  std::optional<pared::StepReport> report;
  std::visit(
      [&](auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (kHasSession<T>)
          report = s.session.step(s.mutable_mesh());
      },
      st->body);
  if (!report)
    return make_error(Err::kBadState, "graph sessions use repartition");
  st->last_report = *report;
  log_op(*st, kOpStep, payload);

  par::Writer w;
  encode_step_report(w, *report);
  return make_ok(kOpStep, w.take());
}

Reply Registry::op_adapt(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  const auto mode = r.get<std::uint8_t>();
  if (!id || !mode)
    return make_error(Err::kBadPayload,
                      "adapt expects {u32 session, u8 mode, i32[] marks}");
  auto marks = r.get_vector<mesh::ElemIdx>(
      static_cast<std::uint64_t>(limits_.max_elements) * 2);
  if (!marks || !r.done() || *mode > 1)
    return make_error(Err::kBadPayload,
                      "adapt expects {u32 session, u8 mode, i32[] marks}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  struct Out {
    std::int64_t changed = 0;
  };
  std::optional<Out> out;
  bool bad_marks = false;
  std::visit(
      [&](auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (kIsMeshState<T>) {
          // is_leaf() (used by refine/coarsen to filter marks) indexes the
          // element array unchecked, so range-check against current slots.
          const auto slots =
              static_cast<mesh::ElemIdx>(s.uploaded.element_slots());
          for (const mesh::ElemIdx m : *marks)
            if (m < 0 || m >= slots) {
              bad_marks = true;
              return;
            }
          // Canonicalize (sorted, unique) so the oplog replays an identical
          // adaptation regardless of how the client ordered its marks.
          std::sort(marks->begin(), marks->end());
          marks->erase(std::unique(marks->begin(), marks->end()),
                       marks->end());
          out = Out{*mode == 0 ? s.uploaded.refine(*marks)
                               : s.uploaded.coarsen(*marks)};
        }
      },
      st->body);
  if (bad_marks)
    return make_error(Err::kBadPayload, "adapt mark out of range");
  if (!out)
    return make_error(Err::kBadState,
                      "adapt applies to uploaded-mesh sessions only");

  const std::int64_t elements = body_elements(st->body);
  if (elements > limits_.max_elements) {
    erase_session(*id, /*even_hidden=*/false);
    return make_error(Err::kLimitExceeded,
                      "adapted mesh exceeds max_elements; session closed");
  }
  st->cached_elements.store(elements, std::memory_order_relaxed);
  log_op(*st, kOpAdapt, payload);

  par::Writer w;
  w.put(out->changed);
  w.put(elements);
  return make_ok(kOpAdapt, w.take());
}

Reply Registry::op_repartition(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  const auto eng_byte = r.get<std::uint8_t>();
  if (!id || !eng_byte || !r.done())
    return make_error(Err::kBadPayload,
                      "repartition expects {u32 session, u8 engine}");
  if (*eng_byte != kEngineDefault && !engine::valid_kind(*eng_byte))
    return make_error(Err::kBadPayload, "unknown engine");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");
  auto* s = std::get_if<GraphState>(&st->body);
  if (!s)
    return make_error(Err::kBadState,
                      "repartition applies to graph sessions only");

  const engine::Kind eng = *eng_byte == kEngineDefault
                               ? s->engine
                               : static_cast<engine::Kind>(*eng_byte);
  if (geometric_engine(eng) && s->dim == 0)
    return make_error(Err::kBadState,
                      "session was created without coordinates; "
                      "geometric engines unavailable");
  engine::Input in;
  in.graph = &s->g;
  in.coords = s->coords;
  in.dim = s->dim;
  in.previous = &s->partition;
  in.parts = st->parts;
  in.options = s->options;
  in.rng = &s->rng;
  core::RepartitionStats stats;
  s->partition = engine::repartitioner(eng).run(in, &stats);
  s->last_stats = stats;
  s->has_stats = true;
  log_op(*st, kOpRepartition, payload);

  par::Writer w;
  w.put(stats.cut_before);
  w.put(stats.cut_after);
  w.put(stats.migrate);
  w.put(stats.imbalance_before);
  w.put(stats.imbalance_after);
  w.put(static_cast<std::int32_t>(stats.levels));
  // Echo the backend that actually ran, proving the selection round-trips.
  w.put(static_cast<std::uint8_t>(eng));
  return make_ok(kOpRepartition, w.take());
}

Reply Registry::op_get_metrics(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload, "get_metrics expects {u32 session}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  // Settle any deferred step metrics now (and cache them in the session).
  // After a post-step adaptation the deferred quantities are unrecoverable;
  // the reply then carries the partial report unchanged.
  std::visit(
      [&](auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (kHasSession<T>) {
          if (s.session.metrics_current(s.mesh()))
            st->last_report = s.session.metrics(s.mesh());
        }
      },
      st->body);

  par::Writer w;
  par::put_string(w, kind_name(st->body));
  w.put(static_cast<std::uint8_t>(st->strategy));
  w.put(static_cast<std::uint8_t>(st->engine));
  w.put(st->parts);
  w.put(body_elements(st->body));
  w.put(st->ops_applied);
  w.put(static_cast<std::uint8_t>(st->last_report.has_value()));
  if (st->last_report) encode_step_report(w, *st->last_report);
  const auto* s = std::get_if<GraphState>(&st->body);
  w.put(static_cast<std::uint8_t>(s && s->has_stats));
  if (s && s->has_stats) {
    w.put(s->last_stats.cut_before);
    w.put(s->last_stats.cut_after);
    w.put(s->last_stats.migrate);
    w.put(s->last_stats.imbalance_before);
    w.put(s->last_stats.imbalance_after);
    w.put(static_cast<std::int32_t>(s->last_stats.levels));
  }
  return make_ok(kOpGetMetrics, w.take());
}

Reply Registry::op_get_assignment(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload,
                      "get_assignment expects {u32 session}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  const std::vector<part::PartId> assign = std::visit(
      [](const auto& s) -> std::vector<part::PartId> {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, GraphState>)
          return s.partition.assign;
        else
          // On a fed shard the leaf tags mirror the committed tree
          // ownership, so this is the shard's adopted partition in dense
          // leaf order.
          return fed::leaf_tags(s.mesh());
      },
      st->body);

  par::Writer w;
  encode_assignment(w, assign);
  return make_ok(kOpGetAssignment, w.take());
}

Reply Registry::op_checkpoint(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload, "checkpoint expects {u32 session}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");
  if (!st->checkpoint_ok)
    return make_error(Err::kBadState,
                      "replay log overflowed; checkpoint unavailable");

  par::Writer w;
  w.put(st->create_op);
  w.put_vector(st->create_payload);
  w.put(static_cast<std::uint32_t>(st->oplog.size()));
  for (const auto& [op, args] : st->oplog) {
    w.put(op);
    w.put_vector(args);
  }
  return make_ok(kOpCheckpoint, w.take());
}

Reply Registry::op_restore(const Bytes& payload) {
  par::TryReader r(payload);
  const auto create_op = r.get<std::uint16_t>();
  if (!create_op ||
      (*create_op != kOpCreateWorkload && *create_op != kOpCreateMesh &&
       *create_op != kOpCreateGraph && *create_op != kOpFedAttach))
    return make_error(Err::kBadPayload, "checkpoint has no create record");
  auto create_payload = r.get_vector<std::uint8_t>(limits_.max_frame_bytes);
  const auto count = r.get<std::uint32_t>();
  if (!create_payload || !count || *count > limits_.max_oplog_entries)
    return make_error(Err::kBadPayload, "malformed checkpoint");
  std::vector<std::pair<std::uint16_t, Bytes>> ops;
  ops.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto op = r.get<std::uint16_t>();
    if (!op || !is_mutating_op(*op))
      return make_error(Err::kBadPayload, "checkpoint replays a non-mutating op");
    auto args = r.get_vector<std::uint8_t>(limits_.max_frame_bytes);
    if (!args) return make_error(Err::kBadPayload, "malformed checkpoint");
    ops.emplace_back(*op, std::move(*args));
  }
  if (!r.done()) return make_error(Err::kBadPayload, "malformed checkpoint");

  // Replay the create and every logged op through the normal validated
  // handlers; the restored session accumulates its own (identical) oplog,
  // so it is itself checkpointable. The session stays hidden from shard
  // workers until the replay completes, so a concurrent request aimed at a
  // guessed id cannot observe (or close) a half-restored session.
  hide_next_create_ = true;
  const Reply created = dispatch(*create_op, *create_payload);
  hide_next_create_ = false;
  if (created.type == kTypeError) return created;
  par::TryReader cr(created.payload);
  const auto new_id = cr.get<std::uint32_t>();
  if (!new_id)
    return make_error(Err::kInternal, "create replay returned no session id");
  restoring_id_.store(*new_id, std::memory_order_relaxed);

  std::uint32_t replayed = 0;
  for (const auto& [op, args] : ops) {
    par::Writer w;
    w.put(*new_id);
    Bytes op_payload = w.take();
    op_payload.insert(op_payload.end(), args.begin(), args.end());
    const Reply rr = dispatch(op, op_payload);
    if (rr.type == kTypeError) {
      restoring_id_.store(0, std::memory_order_relaxed);
      erase_session(*new_id, /*even_hidden=*/true);
      return make_error(Err::kBadPayload,
                        "checkpoint replay failed at op " +
                            std::to_string(replayed));
    }
    ++replayed;
  }

  const std::int64_t elements = body_elements(find(*new_id)->body);
  // Reveal: from here on every shard worker can reach the session.
  {
    Shard& sh = *shards_[static_cast<std::size_t>(shard_of(*new_id))];
    util::MutexLock lock(sh.mutex);
    sh.sessions.find(*new_id)->second->hidden = false;
  }
  restoring_id_.store(0, std::memory_order_relaxed);

  par::Writer w;
  w.put(*new_id);
  w.put(elements);
  w.put(replayed);
  return make_ok(kOpRestore, w.take());
}

// ---- federation ops (docs/FEDERATION.md) ------------------------------------

namespace {

/// Visit the Fed shard of a session body; f is called with fed::Shard2D& or
/// fed::Shard3D&. Returns false (without calling f) for non-fed sessions.
template <typename F>
bool with_fed_shard(Body& body, F&& f) {
  return std::visit(
      [&](auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (kIsFedState<T>) {
          f(s.shard);
          return true;
        } else {
          return false;
        }
      },
      body);
}

}  // namespace

Reply Registry::op_fed_attach(const Bytes& payload) {
  par::TryReader r(payload);
  std::string why;
  const auto att = decode_fed_attach(r, limits_, &why);
  if (!att || !r.done())
    return make_error(Err::kBadPayload,
                      why.empty() ? "malformed fed attach" : why);
  if (num_sessions() >= limits_.max_sessions)
    return make_error(Err::kLimitExceeded, "session limit reached");

  const engine::Kind eng = resolve_engine(att->spec.engine, limits_);
  std::optional<Body> body;
  std::int64_t elements = 0;
  std::uint64_t mesh_fp = 0;
  // decode_fed_attach admits the transient kinds only.
  const auto attach = [&]<typename Run>(std::type_identity<Run>)
      -> std::optional<Reply> {
    if (const auto refusal = growth_refusal<Run>(att->spec, limits_))
      return make_error(Err::kLimitExceeded, "fed attach: " + *refusal);
    FedState<Run> state{
        fed::ShardT<Run>(make_run<Run>(att->spec), att->rank, att->count)};
    elements = state.mesh().num_leaves();
    if (elements > limits_.max_elements)
      return make_error(Err::kLimitExceeded,
                        "workload mesh exceeds max_elements");
    if (att->count > state.mesh().num_initial_elements())
      return make_error(Err::kBadPayload,
                        "shard count exceeds the workload's level-0 elements");
    mesh_fp = state.shard.mesh_fp();
    body.emplace(std::move(state));
    return std::nullopt;
  };
  const std::optional<Reply> refused =
      att->spec.kind == WorkloadKind::kTransient3D
          ? attach(std::type_identity<pared::TransientRun3D>{})
          : attach(std::type_identity<pared::TransientRun>{});
  if (refused) return *refused;

  // The spec leads the attach payload, so the engine byte sits at the same
  // offset as in a kOpCreateWorkload record.
  const std::uint32_t id = register_session(std::make_unique<SessionState>(
      std::move(*body), att->spec.strategy, eng, att->spec.parts,
      kOpFedAttach, payload, kWorkloadSpecEngineOffset));

  par::Writer w;
  w.put(id);
  w.put(elements);
  w.put(mesh_fp);
  return make_ok(kOpFedAttach, w.take());
}

Reply Registry::op_fed_advance(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload, "fed_advance expects {u32 session}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  std::string why;
  std::optional<fed::Shard2D::AdvanceResult> out;
  const bool is_fed = with_fed_shard(st->body, [&](auto& shard) {
    if (auto res = shard.advance(&why))
      out = {res->step, res->t, res->bisections, res->merges, res->elements,
             res->mesh_fp};
  });
  if (!is_fed)
    return make_error(Err::kBadState, "not a federated shard session");
  if (!out) return make_error(Err::kBadState, why);

  const std::int64_t elements = out->elements;
  if (elements > limits_.max_elements) {
    erase_session(*id, /*even_hidden=*/false);
    return make_error(Err::kLimitExceeded,
                      "adapted mesh exceeds max_elements; session closed");
  }
  st->cached_elements.store(elements, std::memory_order_relaxed);
  log_op(*st, kOpFedAdvance, payload);

  par::Writer w;
  w.put(elements);
  w.put(out->bisections);
  w.put(out->merges);
  w.put(out->t);
  w.put(static_cast<std::int32_t>(out->step));
  w.put(out->mesh_fp);
  return make_ok(kOpFedAdvance, w.take());
}

Reply Registry::op_fed_interface(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload,
                      "fed_interface expects {u32 session}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  std::optional<check::FedShardReport> rep;
  const bool is_fed = with_fed_shard(
      st->body, [&](auto& shard) { rep = shard.interface_report(); });
  if (!is_fed)
    return make_error(Err::kBadState, "not a federated shard session");

  // Read-only gather: not logged, invisible to checkpoints.
  par::Writer w;
  encode_fed_report(w, *rep);
  return make_ok(kOpFedInterface, w.take());
}

Reply Registry::op_fed_plan(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id)
    return make_error(Err::kBadPayload,
                      "fed_plan expects {u32 session, i32[] assignment}");
  auto next = decode_assignment(
      r, static_cast<std::uint64_t>(limits_.max_graph_vertices));
  if (!next || !r.done())
    return make_error(Err::kBadPayload,
                      "fed_plan expects {u32 session, i32[] assignment}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  std::string why;
  std::optional<FedPlanReply> rep;
  bool staged = false;
  const bool is_fed = with_fed_shard(st->body, [&](auto& shard) {
    staged = shard.plan_staged();
    if (staged) return;
    if (auto res = shard.apply_plan(*next, &why)) {
      FedPlanReply out;
      out.elements_out = res->elements_out;
      out.outgoing.reserve(res->outgoing.size());
      for (auto& o : res->outgoing)
        out.outgoing.push_back(
            FedTree{o.dest, o.root, std::move(o.payload)});
      rep = std::move(out);
    }
  });
  if (!is_fed)
    return make_error(Err::kBadState, "not a federated shard session");
  if (staged)
    return make_error(Err::kBadState, "a migration plan is already staged");
  if (!rep) return make_error(Err::kBadPayload, why);
  log_op(*st, kOpFedPlan, payload);

  par::Writer w;
  encode_fed_plan_reply(w, *rep);
  return make_ok(kOpFedPlan, w.take());
}

Reply Registry::op_fed_exchange(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id)
    return make_error(Err::kBadPayload,
                      "fed_exchange expects {u32 session, exchange body}");
  const auto ex = decode_fed_exchange(r, limits_);
  if (!ex || !r.done())
    return make_error(Err::kBadPayload, "malformed fed exchange");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  // Pure validation: the replica already holds every element, so a hostile
  // payload is rejected with a typed error and the session stays live with
  // no state change (ownership flips only at commit).
  std::string why;
  bool staged = true;
  std::int64_t accepted = 0;
  std::int64_t leaves_in = 0;
  bool rejected = false;
  const bool is_fed = with_fed_shard(st->body, [&](auto& shard) {
    if (!shard.plan_staged()) {
      staged = false;
      return;
    }
    for (const FedTree& t : ex->trees) {
      const auto info = shard.ingest(ex->src, t.root, t.payload.data(),
                                     t.payload.size(), &why);
      if (!info) {
        rejected = true;
        return;
      }
      ++accepted;
      leaves_in += info->leaves;
    }
  });
  if (!is_fed)
    return make_error(Err::kBadState, "not a federated shard session");
  if (!staged)
    return make_error(Err::kBadState, "no migration plan staged");
  if (rejected) return make_error(Err::kAuditFailed, why);

  par::Writer w;
  w.put(accepted);
  w.put(leaves_in);
  return make_ok(kOpFedExchange, w.take());
}

Reply Registry::op_fed_commit(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload, "fed_commit expects {u32 session}");
  SessionState* st = find(*id);
  if (!st) return make_error(Err::kUnknownSession, "no such session");

  std::string why;
  std::optional<fed::Shard2D::CommitResult> out;
  const bool is_fed = with_fed_shard(st->body, [&](auto& shard) {
    if (auto res = shard.commit(&why))
      out = {res->elements, res->owned_leaves, res->assign_fp, res->mesh_fp};
  });
  if (!is_fed)
    return make_error(Err::kBadState, "not a federated shard session");
  if (!out) return make_error(Err::kBadState, why);
  log_op(*st, kOpFedCommit, payload);

  par::Writer w;
  w.put(out->elements);
  w.put(out->owned_leaves);
  w.put(out->assign_fp);
  w.put(out->mesh_fp);
  return make_ok(kOpFedCommit, w.take());
}

Reply Registry::op_close_session(const Bytes& payload) {
  par::TryReader r(payload);
  const auto id = r.get<std::uint32_t>();
  if (!id || !r.done())
    return make_error(Err::kBadPayload, "close expects {u32 session}");
  if (!erase_session(*id, /*even_hidden=*/false))
    return make_error(Err::kUnknownSession, "no such session");
  return make_ok(kOpCloseSession, Bytes{});
}

Reply Registry::op_list_sessions(const Bytes& payload) {
  if (!payload.empty())
    return make_error(Err::kBadPayload, "list takes no payload");
  // Snapshot each shard under its lock, then merge by id so the wire order
  // matches the serial single-map iteration exactly. Only immutable fields
  // (strategy, parts, the variant's discriminator) and the atomic element
  // cache are read — a shard worker may be mid-step on any listed session.
  struct Row {
    std::uint32_t id;
    const char* kind;
    std::uint8_t strategy;
    std::int32_t parts;
    std::int64_t elements;
  };
  std::vector<Row> rows;
  rows.reserve(num_sessions());
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    for (const auto& [id, st] : shard->sessions) {
      if (st->hidden) continue;
      rows.push_back({id, kind_name(st->body),
                      static_cast<std::uint8_t>(st->strategy), st->parts,
                      st->cached_elements.load(std::memory_order_relaxed)});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.id < b.id; });
  par::Writer w;
  w.put(static_cast<std::uint32_t>(rows.size()));
  for (const Row& row : rows) {
    w.put(row.id);
    par::put_string(w, row.kind);
    w.put(row.strategy);
    w.put(row.parts);
    w.put(row.elements);
  }
  return make_ok(kOpListSessions, w.take());
}

Reply Registry::op_shutdown(const Bytes& payload) {
  if (!payload.empty())
    return make_error(Err::kBadPayload, "shutdown takes no payload");
  shutting_down_.store(true, std::memory_order_relaxed);
  return make_ok(kOpShutdown, Bytes{});
}

}  // namespace pnr::svc
