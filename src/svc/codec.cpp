#include "svc/codec.hpp"

#include <cmath>

#include "check/check.hpp"
#include "engine/engine.hpp"
#include "exec/pool.hpp"
#include "mesh/build.hpp"
#include "mesh/types.hpp"

namespace pnr::svc {

namespace {

/// Count of entries outside [lo, hi] — a deterministic pool reduction (sum
/// of per-chunk counts; integer addition commutes, so any --threads width
/// gives the same verdict).
template <typename T>
std::int64_t count_out_of_range(const std::vector<T>& v, T lo, T hi) {
  return exec::default_pool().parallel_reduce<std::int64_t>(
      static_cast<std::int64_t>(v.size()), 0,
      [&](std::int64_t b, std::int64_t e) {
        std::int64_t bad = 0;
        for (std::int64_t i = b; i < e; ++i) {
          const T x = v[static_cast<std::size_t>(i)];
          bad += (x < lo) | (x > hi);
        }
        return bad;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
}

/// Count of non-finite or absurdly large coordinates. The magnitude cap
/// keeps every downstream area/volume determinant finite (no inf − inf
/// NaN), which is what the mesh constructors' REQUIREs assume.
std::int64_t count_bad_coords(const std::vector<double>& v) {
  constexpr double kCoordCap = 1e100;
  return exec::default_pool().parallel_reduce<std::int64_t>(
      static_cast<std::int64_t>(v.size()), 0,
      [&](std::int64_t b, std::int64_t e) {
        std::int64_t bad = 0;
        for (std::int64_t i = b; i < e; ++i) {
          const double x = v[static_cast<std::size_t>(i)];
          bad += !std::isfinite(x) || std::fabs(x) > kCoordCap;
        }
        return bad;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
}

bool finite_in(double x, double lo, double hi) {
  return std::isfinite(x) && x >= lo && x <= hi;
}

void fail(std::string* why, const char* reason) {
  if (why) *why = reason;
}

}  // namespace

// ---- meshes -----------------------------------------------------------------

void encode_mesh(par::Writer& w, const FlatMesh& m) {
  w.put(m.dim);
  w.put_vector(m.coords);
  w.put_vector(m.elems);
}

std::optional<FlatMesh> decode_mesh(par::TryReader& r, const Limits& limits) {
  FlatMesh m;
  const auto dim = r.get<std::int32_t>();
  if (!dim || (*dim != 2 && *dim != 3)) return std::nullopt;
  m.dim = *dim;
  const auto per = static_cast<std::uint64_t>(*dim + 1);
  auto coords = r.get_vector<double>(
      static_cast<std::uint64_t>(limits.max_vertices) * 3);
  if (!coords) return std::nullopt;
  auto elems = r.get_vector<std::int32_t>(
      static_cast<std::uint64_t>(limits.max_elements) * per);
  if (!elems) return std::nullopt;
  m.coords = std::move(*coords);
  m.elems = std::move(*elems);
  if (m.coords.empty() || m.coords.size() % static_cast<std::size_t>(m.dim))
    return std::nullopt;
  if (m.elems.empty() || m.elems.size() % per) return std::nullopt;
  const auto n =
      static_cast<std::int64_t>(m.coords.size()) / m.dim;
  if (n > limits.max_vertices) return std::nullopt;
  if (static_cast<std::int64_t>(m.elems.size() / per) > limits.max_elements)
    return std::nullopt;
  if (count_bad_coords(m.coords)) return std::nullopt;
  if (count_out_of_range<std::int32_t>(m.elems, 0,
                                       static_cast<std::int32_t>(n - 1)))
    return std::nullopt;
  return m;
}

template <typename Mesh>
FlatMesh flatten_mesh(const Mesh& mesh) {
  FlatMesh flat;
  flat.dim = Mesh::kDim;
  std::vector<std::int32_t> dense(mesh.vertex_slots(), -1);
  std::int32_t next = 0;
  for (std::size_t v = 0; v < mesh.vertex_slots(); ++v)
    if (mesh.vertex_alive(static_cast<mesh::VertIdx>(v))) {
      dense[v] = next++;
      for (const double c : mesh::coords(
               mesh.vertex(static_cast<mesh::VertIdx>(v))))
        flat.coords.push_back(c);
    }
  for (const mesh::ElemIdx e : mesh.leaf_elements())
    for (const mesh::VertIdx v : mesh.element(e).v)
      flat.elems.push_back(dense[static_cast<std::size_t>(v)]);
  return flat;
}

template <typename Mesh>
std::optional<Mesh> build_mesh(const FlatMesh& m, std::string* why) {
  if (m.dim != Mesh::kDim) {
    fail(why, Mesh::kDim == 2 ? "flat mesh shape is not 2D"
                              : "flat mesh shape is not 3D");
    return std::nullopt;
  }
  // Everything the mesh's finalize PNR_REQUIREs is pre-validated by the
  // mesh layer, so hostile input gets a typed error instead of aborting the
  // server.
  auto built = mesh::try_build_mesh<Mesh>(m.coords, m.elems, why);
  if (!built) return std::nullopt;
  if (const auto report = check::check_mesh(*built); !report.ok()) {
    fail(why, "mesh audit failed");
    return std::nullopt;
  }
  return built;
}

template FlatMesh flatten_mesh(const mesh::TriMesh&);
template FlatMesh flatten_mesh(const mesh::TetMesh&);
template std::optional<mesh::TriMesh> build_mesh(const FlatMesh&,
                                                 std::string*);
template std::optional<mesh::TetMesh> build_mesh(const FlatMesh&,
                                                 std::string*);

// ---- graphs -----------------------------------------------------------------

void encode_graph(par::Writer& w, const graph::Graph& g) {
  w.put_vector(g.xadj());
  w.put_vector(g.adjncy());
  w.put_vector(g.adjwgt());
  w.put_vector(g.vwgt());
}

std::optional<graph::Graph> decode_graph(par::TryReader& r,
                                         const Limits& limits,
                                         std::string* why) {
  const auto max_arcs = static_cast<std::uint64_t>(limits.max_graph_edges) * 2;
  auto xadj = r.get_vector<std::int64_t>(
      static_cast<std::uint64_t>(limits.max_graph_vertices) + 1);
  if (!xadj) return std::nullopt;
  auto adjncy = r.get_vector<graph::VertexId>(max_arcs);
  if (!adjncy) return std::nullopt;
  auto adjwgt = r.get_vector<graph::Weight>(max_arcs);
  if (!adjwgt) return std::nullopt;
  auto vwgt = r.get_vector<graph::Weight>(
      static_cast<std::uint64_t>(limits.max_graph_vertices));
  if (!vwgt) return std::nullopt;

  // Everything Graph's constructor PNR_REQUIREs, plus monotonicity and
  // neighbor ranges, validated before construction so hostile CSR cannot
  // abort the server.
  const auto n = static_cast<std::int64_t>(vwgt->size());
  if (n < 1 || xadj->size() != vwgt->size() + 1 ||
      adjncy->size() != adjwgt->size()) {
    fail(why, "CSR array shapes disagree");
    return std::nullopt;
  }
  if (xadj->front() != 0 ||
      xadj->back() != static_cast<std::int64_t>(adjncy->size())) {
    fail(why, "CSR xadj endpoints are wrong");
    return std::nullopt;
  }
  for (std::size_t i = 0; i + 1 < xadj->size(); ++i)
    if ((*xadj)[i] > (*xadj)[i + 1]) {
      fail(why, "CSR xadj is not monotone");
      return std::nullopt;
    }
  if (count_out_of_range<graph::VertexId>(
          *adjncy, 0, static_cast<graph::VertexId>(n - 1)) ||
      count_out_of_range<graph::Weight>(*adjwgt, 0,
                                        std::int64_t{1} << 40) ||
      count_out_of_range<graph::Weight>(*vwgt, 0, std::int64_t{1} << 40)) {
    fail(why, "CSR neighbor ids or weights out of range");
    return std::nullopt;
  }
  graph::Graph g(std::move(*xadj), std::move(*adjncy), std::move(*adjwgt),
                 std::move(*vwgt));
  // Deep audit (symmetry, duplicate arcs, self loops) — the full
  // check_graph battery, run unconditionally on uploads.
  if (const auto report = check::check_graph(g); !report.ok()) {
    fail(why, "graph audit failed");
    return std::nullopt;
  }
  return g;
}

// ---- assignments and reports ------------------------------------------------

void encode_assignment(par::Writer& w, const std::vector<part::PartId>& a) {
  w.put_vector(a);
}

std::optional<std::vector<part::PartId>> decode_assignment(
    par::TryReader& r, std::uint64_t max_size) {
  return r.get_vector<part::PartId>(max_size);
}

void encode_step_report(par::Writer& w, const pared::StepReport& report) {
  w.put(report.elements);
  w.put(report.cut_prev);
  w.put(report.cut_new);
  w.put(report.shared_vertices);
  w.put(report.migrated);
  w.put(report.migrated_remapped);
  w.put(report.imbalance);
}

std::optional<pared::StepReport> decode_step_report(par::TryReader& r) {
  pared::StepReport report;
  const auto elements = r.get<std::int64_t>();
  const auto cut_prev = r.get<graph::Weight>();
  const auto cut_new = r.get<graph::Weight>();
  const auto shared = r.get<std::int64_t>();
  const auto migrated = r.get<std::int64_t>();
  const auto migrated_remapped = r.get<std::int64_t>();
  const auto imbalance = r.get<double>();
  if (!imbalance) return std::nullopt;  // later fields imply earlier ones
  report.elements = *elements;
  report.cut_prev = *cut_prev;
  report.cut_new = *cut_new;
  report.shared_vertices = *shared;
  report.migrated = *migrated;
  report.migrated_remapped = *migrated_remapped;
  report.imbalance = *imbalance;
  return report;
}

// ---- session specs ----------------------------------------------------------

void encode_workload_spec(par::Writer& w, const WorkloadSpec& spec) {
  w.put(static_cast<std::uint8_t>(spec.kind));
  w.put(static_cast<std::uint8_t>(spec.strategy));
  w.put(spec.parts);
  w.put(spec.session_seed);
  w.put(spec.transient.steps);
  w.put(spec.transient.t_begin);
  w.put(spec.transient.t_end);
  w.put(spec.transient.refine_threshold);
  w.put(spec.transient.coarsen_threshold);
  w.put(spec.transient.max_level);
  w.put(spec.transient.grid_n);
  w.put(spec.transient.seed);
  w.put(spec.corner.tau);
  w.put(spec.corner.decay);
  w.put(spec.corner.max_level_slack);
  w.put(spec.corner.seed);
  w.put(spec.corner_grid_n);
  w.put(spec.alpha);
  w.put(spec.beta);
  w.put(spec.engine);
}

std::optional<WorkloadSpec> decode_workload_spec(par::TryReader& r,
                                                 const Limits& limits) {
  WorkloadSpec spec;
  const auto kind = r.get<std::uint8_t>();
  const auto strategy = r.get<std::uint8_t>();
  if (!kind || !strategy) return std::nullopt;
  if (*kind > static_cast<std::uint8_t>(WorkloadKind::kTransient3D) ||
      *strategy > static_cast<std::uint8_t>(pared::Strategy::kMlDiffusion))
    return std::nullopt;
  spec.kind = static_cast<WorkloadKind>(*kind);
  spec.strategy = static_cast<pared::Strategy>(*strategy);
  const auto parts = r.get<std::int32_t>();
  const auto seed = r.get<std::uint64_t>();
  if (!parts || !seed) return std::nullopt;
  spec.parts = *parts;
  spec.session_seed = *seed;

  const auto steps = r.get<std::int32_t>();
  const auto t_begin = r.get<double>();
  const auto t_end = r.get<double>();
  const auto refine = r.get<double>();
  const auto coarsen = r.get<double>();
  const auto max_level = r.get<std::int32_t>();
  const auto grid_n = r.get<std::int32_t>();
  const auto tseed = r.get<std::uint64_t>();
  const auto tau = r.get<double>();
  const auto decay = r.get<double>();
  const auto slack = r.get<std::int32_t>();
  const auto cseed = r.get<std::uint64_t>();
  const auto corner_grid = r.get<std::int32_t>();
  const auto alpha = r.get<double>();
  const auto beta = r.get<double>();
  const auto eng = r.get<std::uint8_t>();
  // Every optional is checked: a failed TryReader read does not advance
  // the cursor, so after a mid-payload truncation a *narrower* later
  // field (the u8 engine) can still read successfully — checking only
  // the last field would let truncated specs through.
  if (!steps || !t_begin || !t_end || !refine || !coarsen || !max_level ||
      !grid_n || !tseed || !tau || !decay || !slack || !cseed ||
      !corner_grid || !alpha || !beta || !eng)
    return std::nullopt;

  // Bounds that keep a hostile spec from exploding the server: positive
  // refine threshold and a modest depth cap bound mesh growth; step counts
  // bound replay time.
  if (spec.parts < 1 || spec.parts > limits.max_parts) return std::nullopt;
  if (*steps < 1 || *steps > limits.max_workload_steps) return std::nullopt;
  if (!std::isfinite(*t_begin) || !std::isfinite(*t_end) ||
      *t_end < *t_begin)
    return std::nullopt;
  if (!finite_in(*refine, 1e-9, 1e9) || !finite_in(*coarsen, 0.0, 1e9))
    return std::nullopt;
  if (*max_level < 1 || *max_level > 16) return std::nullopt;
  if (*grid_n < 2 || *grid_n > 128) return std::nullopt;
  if (!finite_in(*tau, 1e-9, 1e9)) return std::nullopt;
  if (!finite_in(*decay, 1e-6, 1.0)) return std::nullopt;
  if (*slack < 0 || *slack > 16) return std::nullopt;
  if (*corner_grid < 0 || *corner_grid > 128) return std::nullopt;
  if (!finite_in(*alpha, 0.0, 100.0) || !finite_in(*beta, 0.0, 100.0))
    return std::nullopt;
  if (*eng != kEngineDefault && !engine::valid_kind(*eng)) return std::nullopt;

  spec.transient.steps = *steps;
  spec.transient.t_begin = *t_begin;
  spec.transient.t_end = *t_end;
  spec.transient.refine_threshold = *refine;
  spec.transient.coarsen_threshold = *coarsen;
  spec.transient.max_level = *max_level;
  spec.transient.grid_n = *grid_n;
  spec.transient.seed = *tseed;
  spec.corner.tau = *tau;
  spec.corner.decay = *decay;
  spec.corner.max_level_slack = *slack;
  spec.corner.seed = *cseed;
  spec.corner_grid_n = *corner_grid;
  spec.alpha = *alpha;
  spec.beta = *beta;
  spec.engine = *eng;
  return spec;
}

void encode_create_head(par::Writer& w, const CreateHead& head) {
  w.put(static_cast<std::uint8_t>(head.strategy));
  w.put(head.parts);
  w.put(head.session_seed);
  w.put(head.alpha);
  w.put(head.beta);
  w.put(head.engine);
}

std::optional<CreateHead> decode_create_head(par::TryReader& r,
                                             const Limits& limits) {
  CreateHead head;
  const auto strategy = r.get<std::uint8_t>();
  const auto parts = r.get<std::int32_t>();
  const auto seed = r.get<std::uint64_t>();
  const auto alpha = r.get<double>();
  const auto beta = r.get<double>();
  const auto eng = r.get<std::uint8_t>();
  // All optionals checked for the same truncation reason as
  // decode_workload_spec above.
  if (!strategy || !parts || !seed || !alpha || !beta || !eng)
    return std::nullopt;
  if (*strategy > static_cast<std::uint8_t>(pared::Strategy::kMlDiffusion))
    return std::nullopt;
  if (*parts < 1 || *parts > limits.max_parts) return std::nullopt;
  if (!finite_in(*alpha, 0.0, 100.0) || !finite_in(*beta, 0.0, 100.0))
    return std::nullopt;
  if (*eng != kEngineDefault && !engine::valid_kind(*eng)) return std::nullopt;
  head.strategy = static_cast<pared::Strategy>(*strategy);
  head.parts = *parts;
  head.session_seed = *seed;
  head.alpha = *alpha;
  head.beta = *beta;
  head.engine = *eng;
  return head;
}

// ---- federation (docs/FEDERATION.md) ----------------------------------------

void encode_fed_attach(par::Writer& w, const FedAttach& a) {
  encode_workload_spec(w, a.spec);
  w.put(a.rank);
  w.put(a.count);
}

std::optional<FedAttach> decode_fed_attach(par::TryReader& r,
                                           const Limits& limits,
                                           std::string* why) {
  auto spec = decode_workload_spec(r, limits);
  if (!spec) {
    fail(why, "bad workload spec");
    return std::nullopt;
  }
  const auto rank = r.get<std::uint16_t>();
  const auto count = r.get<std::uint16_t>();
  if (!rank || !count) {
    fail(why, "truncated shard slot");
    return std::nullopt;
  }
  if (spec->kind != WorkloadKind::kTransient2D &&
      spec->kind != WorkloadKind::kTransient3D) {
    fail(why, "only transient workloads can federate");
    return std::nullopt;
  }
  if (*count < 1 ||
      static_cast<std::int64_t>(*count) > limits.max_parts) {
    fail(why, "shard count out of range");
    return std::nullopt;
  }
  if (*rank >= *count) {
    fail(why, "shard rank outside [0, count)");
    return std::nullopt;
  }
  if (spec->parts != static_cast<std::int32_t>(*count)) {
    fail(why, "spec parts must equal the shard count");
    return std::nullopt;
  }
  FedAttach a;
  a.spec = *spec;
  a.rank = *rank;
  a.count = *count;
  return a;
}

void encode_fed_report(par::Writer& w, const check::FedShardReport& rep) {
  w.put_vector(rep.owned);
  w.put_vector(rep.owned_weights);
  w.put_vector(rep.primary);
  w.put_vector(rep.echo);
}

std::optional<check::FedShardReport> decode_fed_report(par::TryReader& r,
                                                       const Limits& limits) {
  const auto max_v = static_cast<std::uint64_t>(limits.max_graph_vertices);
  const auto max_e = static_cast<std::uint64_t>(limits.max_graph_edges);
  auto owned = r.get_vector<mesh::ElemIdx>(max_v);
  if (!owned) return std::nullopt;
  auto weights = r.get_vector<graph::Weight>(max_v);
  if (!weights) return std::nullopt;
  auto primary = r.get_vector<check::FedEdge>(max_e);
  if (!primary) return std::nullopt;
  auto echo = r.get_vector<check::FedEdge>(max_e);
  if (!echo) return std::nullopt;
  if (owned->size() != weights->size()) return std::nullopt;
  check::FedShardReport rep;
  rep.owned = std::move(*owned);
  rep.owned_weights = std::move(*weights);
  rep.primary = std::move(*primary);
  rep.echo = std::move(*echo);
  return rep;
  // Deep semantics (ownership, ordering, echo agreement) are audited by
  // check::check_fed_reports at the coordinator, not per decode.
}

namespace {

std::optional<std::vector<FedTree>> decode_fed_trees(par::TryReader& r,
                                                     const Limits& limits,
                                                     bool with_dest) {
  // One subtree per coarse vertex is the structural ceiling; each payload
  // count is validated against the remaining frame bytes before any
  // allocation, so a hostile count cannot balloon memory.
  const auto n = r.get<std::uint64_t>();
  if (!n || *n > static_cast<std::uint64_t>(limits.max_graph_vertices))
    return std::nullopt;
  // Every tree costs at least a root id and a payload length (+ dest), so
  // a count the remaining bytes cannot possibly hold is hostile — reject
  // it before reserve() turns an 8-byte claim into a huge allocation.
  const std::size_t min_tree_bytes = sizeof(mesh::ElemIdx) +
                                     sizeof(std::uint64_t) +
                                     (with_dest ? sizeof(std::int32_t) : 0);
  if (*n > r.remaining() / min_tree_bytes) return std::nullopt;
  std::vector<FedTree> trees;
  trees.reserve(static_cast<std::size_t>(*n));
  for (std::uint64_t i = 0; i < *n; ++i) {
    FedTree t;
    if (with_dest) {
      const auto dest = r.get<std::int32_t>();
      if (!dest) return std::nullopt;
      t.dest = *dest;
    }
    const auto root = r.get<mesh::ElemIdx>();
    if (!root) return std::nullopt;
    t.root = *root;
    auto payload = r.get_vector<std::uint8_t>(limits.max_frame_bytes);
    if (!payload) return std::nullopt;
    t.payload = std::move(*payload);
    trees.push_back(std::move(t));
  }
  return trees;
}

}  // namespace

void encode_fed_plan_reply(par::Writer& w, const FedPlanReply& rep) {
  w.put(rep.elements_out);
  w.put(static_cast<std::uint64_t>(rep.outgoing.size()));
  for (const FedTree& t : rep.outgoing) {
    w.put(t.dest);
    w.put(t.root);
    w.put_vector(t.payload);
  }
}

std::optional<FedPlanReply> decode_fed_plan_reply(par::TryReader& r,
                                                  const Limits& limits) {
  const auto elements_out = r.get<std::int64_t>();
  if (!elements_out || *elements_out < 0) return std::nullopt;
  auto trees = decode_fed_trees(r, limits, /*with_dest=*/true);
  if (!trees) return std::nullopt;
  FedPlanReply rep;
  rep.elements_out = *elements_out;
  rep.outgoing = std::move(*trees);
  return rep;
}

void encode_fed_exchange(par::Writer& w, const FedExchange& ex) {
  w.put(ex.src);
  w.put(static_cast<std::uint64_t>(ex.trees.size()));
  for (const FedTree& t : ex.trees) {
    w.put(t.root);
    w.put_vector(t.payload);
  }
}

std::optional<FedExchange> decode_fed_exchange(par::TryReader& r,
                                               const Limits& limits) {
  const auto src = r.get<std::int32_t>();
  if (!src || *src < 0 || *src >= limits.max_parts) return std::nullopt;
  auto trees = decode_fed_trees(r, limits, /*with_dest=*/false);
  if (!trees) return std::nullopt;
  FedExchange ex;
  ex.src = *src;
  ex.trees = std::move(*trees);
  return ex;
}

}  // namespace pnr::svc
