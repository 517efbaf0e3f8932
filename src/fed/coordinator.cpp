#include "fed/coordinator.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/builder.hpp"

namespace pnr::fed {

namespace {

core::PnrOptions pnr_options_of(const svc::WorkloadSpec& spec) {
  core::PnrOptions popt;
  popt.alpha = spec.alpha;
  popt.beta = spec.beta;
  return popt;
}

std::string client_error(const svc::Client& c) {
  const auto& e = c.last_error();
  if (!e.transport.empty()) return "transport: " + e.transport;
  if (!e.detail.empty()) return e.detail;
  return "unknown client error";
}

template <typename Run>
constexpr svc::WorkloadKind kind_of() {
  if constexpr (Run::Mesh::kDim == 2)
    return svc::WorkloadKind::kTransient2D;
  else
    return svc::WorkloadKind::kTransient3D;
}

}  // namespace

template <typename Run>
CoordinatorT<Run>::CoordinatorT(svc::WorkloadSpec spec, engine::Kind engine,
                                std::vector<svc::Client*> daemons,
                                CoordinatorOptions options)
    : spec_(std::move(spec)),
      engine_(engine),
      daemons_(std::move(daemons)),
      options_(options),
      replica_(Run(spec_.transient)),
      session_(spec_.strategy, spec_.parts, spec_.session_seed,
               pnr_options_of(spec_), engine_) {}

template <typename Run>
bool CoordinatorT<Run>::attach(std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why) *why = std::move(reason);
    return false;
  };
  if (attached_) return fail("already attached");
  if (daemons_.empty()) return fail("no daemons");
  const int n = static_cast<int>(daemons_.size());
  if (spec_.kind != kind_of<Run>())
    return fail("workload kind does not match the coordinator's mesh family");
  if (spec_.strategy != pared::Strategy::kPNR)
    return fail("federation requires the kPNR strategy: the plan is the "
                "session's coarse assignment");
  if (spec_.parts != n)
    return fail("spec.parts must equal the daemon count");
  if (spec_.engine == svc::kEngineDefault)
    return fail("resolve the engine before attaching: kEngineDefault would "
                "let every daemon pick its own");

  const std::uint64_t replica_fp = mesh_fingerprint(replica_.mesh());
  const std::int64_t elements = replica_.mesh().num_leaves();
  sessions_.clear();
  for (int i = 0; i < n; ++i) {
    svc::FedAttach att;
    att.spec = spec_;
    att.rank = static_cast<std::uint16_t>(i);
    att.count = static_cast<std::uint16_t>(n);
    const auto got = daemons_[static_cast<std::size_t>(i)]->fed_attach(att);
    if (!got)
      return fail("shard " + std::to_string(i) + " attach failed: " +
                  client_error(*daemons_[static_cast<std::size_t>(i)]));
    if (got->mesh_fp != replica_fp || got->elements != elements)
      return fail("shard " + std::to_string(i) +
                  " built a different initial replica (non-deterministic "
                  "build or mismatched limits)");
    sessions_.push_back(got->session);
  }
  attached_ = true;
  return true;
}

template <typename Run>
RoundResult CoordinatorT<Run>::round() {
  RoundResult out;
  const auto fail = [&](std::string reason) {
    out.ok = false;
    out.why = std::move(reason);
    return out;
  };
  if (!attached_) return fail("attach() has not succeeded");
  if (replica_.done()) return fail("workload finished");
  const int n = static_cast<int>(daemons_.size());
  const auto client = [&](int i) -> svc::Client& {
    return *daemons_[static_cast<std::size_t>(i)];
  };

  // Phase 1: advance the replicas in lockstep. Any daemon whose mesh digest
  // leaves the coordinator's is broken *now* — catching it before planning
  // means no migration payload is ever built from a diverged mesh.
  const auto info = replica_.advance();
  out.step = info.step;
  out.t = info.t;
  out.refined = info.bisections;
  out.coarsened = info.merges;
  out.elements = replica_.mesh().num_leaves();
  const std::uint64_t replica_fp = mesh_fingerprint(replica_.mesh());
  out.mesh_fp = replica_fp;
  for (int i = 0; i < n; ++i) {
    const auto adv = client(i).fed_advance(sessions_[static_cast<std::size_t>(i)]);
    if (!adv)
      return fail("shard " + std::to_string(i) + " advance failed: " +
                  client_error(client(i)));
    if (adv->step != out.step || adv->elements != out.elements ||
        adv->mesh_fp != replica_fp)
      return fail("shard " + std::to_string(i) +
                  " replica diverged after the adaptation step");
  }

  // Phase 2: gather + audit the interface reports.
  std::vector<check::FedShardReport> reports;
  reports.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto rep = client(i).fed_interface(sessions_[static_cast<std::size_t>(i)]);
    if (!rep)
      return fail("shard " + std::to_string(i) + " interface failed: " +
                  client_error(client(i)));
    reports.push_back(std::move(*rep));
  }
  const auto roots = replica_.mesh().num_initial_elements();
  if (options_.check_level >= 1) {
    auto audit = check::check_fed_reports(roots, reports);
    if (!audit.ok()) {
      out.violations = audit.violations();
      return fail("interface audit failed: " + audit.to_string());
    }
  }

  // Phase 3: assemble the federated coarse graph and step the session.
  // GraphBuilder's CSR is insertion-order independent, so the union of the
  // shards' slices can — and, by the adopt check, must — reproduce the
  // replica's own coarse dual graph byte for byte.
  graph::GraphBuilder builder(static_cast<graph::VertexId>(roots));
  for (const auto& rep : reports) {
    for (std::size_t k = 0; k < rep.owned.size(); ++k)
      builder.set_vertex_weight(static_cast<graph::VertexId>(rep.owned[k]),
                                rep.owned_weights[k]);
    for (const auto& e : rep.primary)
      builder.add_edge(static_cast<graph::VertexId>(e.a),
                       static_cast<graph::VertexId>(e.b), e.w);
  }
  if (!session_.adopt_federated_graph(replica_.mutable_mesh(),
                                      builder.build()))
    return fail("federated coarse graph does not match the replica's own "
                "refresh — a shard misreported its slice");
  out.report = session_.step(replica_.mutable_mesh());
  const auto& next = session_.coarse_assignment();
  if (static_cast<mesh::ElemIdx>(next.size()) != roots)
    return fail("session produced no coarse assignment");
  out.assign_fp = assignment_fingerprint(next);

  // Phase 4: push the plan; every shard stages it and packs what it ships.
  std::vector<svc::FedPlanReply> plans;
  plans.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto plan = client(i).fed_plan(sessions_[static_cast<std::size_t>(i)],
                                   next);
    if (!plan)
      return fail("shard " + std::to_string(i) + " rejected the plan: " +
                  client_error(client(i)));
    out.trees_moved += static_cast<std::int64_t>(plan->outgoing.size());
    out.elements_moved += plan->elements_out;
    for (const auto& tree : plan->outgoing)
      out.payload_bytes += static_cast<std::int64_t>(tree.payload.size());
    plans.push_back(std::move(*plan));
  }

  // Phase 5: relay each shard's outgoing subtrees to their destinations.
  // The receiver verifies every payload against its replica; a rejected
  // subtree (kAuditFailed) means a daemon shipped corrupt bytes.
  std::int64_t leaves_in = 0;
  for (int src = 0; src < n; ++src) {
    std::vector<std::vector<svc::FedTree>> by_dest(
        static_cast<std::size_t>(n));
    for (auto& tree : plans[static_cast<std::size_t>(src)].outgoing) {
      if (tree.dest < 0 || tree.dest >= n)
        return fail("shard " + std::to_string(src) +
                    " routed a subtree to nonexistent shard " +
                    std::to_string(tree.dest));
      by_dest[static_cast<std::size_t>(tree.dest)].push_back(std::move(tree));
    }
    for (int dest = 0; dest < n; ++dest) {
      auto& batch = by_dest[static_cast<std::size_t>(dest)];
      if (batch.empty()) continue;
      const auto ack = client(dest).fed_exchange(
          sessions_[static_cast<std::size_t>(dest)], src, batch);
      if (!ack)
        return fail("exchange " + std::to_string(src) + " -> " +
                    std::to_string(dest) + " failed: " +
                    client_error(client(dest)));
      if (ack->accepted != static_cast<std::int64_t>(batch.size()))
        return fail("shard " + std::to_string(dest) + " accepted " +
                    std::to_string(ack->accepted) + " of " +
                    std::to_string(batch.size()) + " subtrees");
      leaves_in += ack->leaves_in;
    }
  }
  if (leaves_in != out.elements_moved)
    return fail("migration leaf conservation broke: " +
                std::to_string(out.elements_moved) + " leaves left shards, " +
                std::to_string(leaves_in) + " arrived");

  // Phase 6: commit barrier + conservation audit.
  std::vector<std::int64_t> owned;
  std::vector<std::uint64_t> fps;
  owned.reserve(static_cast<std::size_t>(n));
  fps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto commit =
        client(i).fed_commit(sessions_[static_cast<std::size_t>(i)]);
    if (!commit)
      return fail("shard " + std::to_string(i) + " commit failed: " +
                  client_error(client(i)));
    if (commit->mesh_fp != replica_fp || commit->elements != out.elements)
      return fail("shard " + std::to_string(i) +
                  " replica diverged at commit");
    owned.push_back(commit->owned_leaves);
    fps.push_back(commit->assign_fp);
  }
  if (options_.check_level >= 1) {
    auto audit = check::check_fed_commit(out.elements, owned, fps,
                                         out.assign_fp);
    if (!audit.ok()) {
      out.violations = audit.violations();
      return fail("commit audit failed: " + audit.to_string());
    }
  }

  trajectory_fp_ = util::fnv1a_value(out.assign_fp, trajectory_fp_);
  trajectory_fp_ = util::fnv1a_value(replica_fp, trajectory_fp_);
  ++rounds_;
  out.ok = true;
  return out;
}

template <typename Run>
bool CoordinatorT<Run>::finish(bool shutdown_daemons, std::string* why) {
  bool ok = true;
  const auto note = [&](std::string reason) {
    if (ok && why) *why = std::move(reason);
    ok = false;
  };
  // Close sessions first: a daemon acks close only after its shard queue
  // drained this session's in-flight work, so the quiesce ordering is
  // close-all, then shutdown-all.
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    svc::Client& c = *daemons_[i];
    if (!c.connected()) continue;
    if (!c.close_session(sessions_[i]))
      note("shard " + std::to_string(i) + " close failed: " +
           client_error(c));
  }
  sessions_.clear();
  attached_ = false;
  if (shutdown_daemons) {
    // Ranks may share a daemon process; shut each distinct client down once.
    std::unordered_set<svc::Client*> seen;
    for (svc::Client* c : daemons_) {
      if (!seen.insert(c).second || !c->connected()) continue;
      if (!c->shutdown_server())
        note("daemon shutdown failed: " + client_error(*c));
    }
  }
  return ok;
}

template class CoordinatorT<pared::TransientRun>;
template class CoordinatorT<pared::TransientRun3D>;

}  // namespace pnr::fed
