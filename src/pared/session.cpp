#include "pared/session.hpp"

#include "check/check.hpp"
#include "exec/pool.hpp"
#include "util/assert.hpp"
#include "util/prof.hpp"

namespace pnr::pared {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kRSB: return "RSB";
    case Strategy::kRsbRemap: return "RSB+remap";
    case Strategy::kMlkl: return "Multilevel-KL";
    case Strategy::kMlklRemap: return "Multilevel-KL+remap";
    case Strategy::kPNR: return "PNR";
    case Strategy::kDiffusion: return "Diffusion";
    case Strategy::kMlDiffusion: return "ML-Diffusion";
  }
  return "?";
}

std::optional<Strategy> parse_strategy(const std::string& name) {
  if (name == "rsb") return Strategy::kRSB;
  if (name == "rsb-remap") return Strategy::kRsbRemap;
  if (name == "mlkl") return Strategy::kMlkl;
  if (name == "mlkl-remap") return Strategy::kMlklRemap;
  if (name == "pnr") return Strategy::kPNR;
  if (name == "diffusion") return Strategy::kDiffusion;
  if (name == "ml-diffusion") return Strategy::kMlDiffusion;
  return std::nullopt;
}

namespace {

/// Carried fine assignment from the element tags (dense leaf order);
/// nullopt when any tag is unset (first step).
std::optional<std::vector<part::PartId>> carried_assignment(
    const auto& mesh, const std::vector<mesh::ElemIdx>& elems) {
  std::vector<part::PartId> out(elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i) {
    const std::int32_t tag = mesh.tag(elems[i]);
    if (tag < 0) return std::nullopt;
    out[i] = tag;
  }
  return out;
}

void adopt(auto& mesh, const std::vector<mesh::ElemIdx>& elems,
           const std::vector<part::PartId>& assign) {
  for (std::size_t i = 0; i < elems.size(); ++i)
    mesh.set_tag(elems[i], assign[i]);
}

std::int64_t count_moves(const std::vector<part::PartId>& a,
                         const std::vector<part::PartId>& b) {
  std::int64_t moves = 0;
  for (std::size_t i = 0; i < a.size(); ++i) moves += a[i] != b[i];
  return moves;
}

}  // namespace

template <typename Mesh>
void Session<Mesh>::refresh_coarse_graph(Mesh& mesh) {
  PNR_PROF_SPAN("session.coarse_dual");
  const auto delta = mesh.drain_dual_delta();
  bool rebuild = !coarse_graph_valid_ || delta.prev_epoch != dual_epoch_ ||
                 coarse_graph_.num_vertices() != mesh.num_initial_elements();
  if (!rebuild && !delta.vertices.empty()) {
    prof::count("session.dual_delta_vertices",
                static_cast<std::int64_t>(delta.vertices.size()));
    rebuild = !mesh::apply_dual_delta(mesh, delta, coarse_graph_);
  }
  if (rebuild) {
    coarse_graph_ = mesh::nested_dual_graph(mesh);
    coarse_graph_valid_ = true;
    prof::count("session.dual_rebuilds", 1);
  }
  dual_epoch_ = delta.epoch;
  // Level-2 cross-check: the incrementally patched G must equal a
  // from-scratch rebuild, array for array (same deterministic assembler, so
  // even the adjacency layout must agree).
  if constexpr (check::kLevel >= 2) {
    const auto fresh = mesh::nested_dual_graph(mesh);
    std::string violation;
    if (coarse_graph_.xadj() != fresh.xadj() ||
        coarse_graph_.adjncy() != fresh.adjncy())
      violation = "incremental coarse dual topology diverged from rebuild";
    else if (coarse_graph_.vwgt() != fresh.vwgt())
      violation = "incremental coarse dual vertex weights diverged";
    else if (coarse_graph_.adjwgt() != fresh.adjwgt())
      violation = "incremental coarse dual edge weights diverged";
    check::enforce_empty(violation, "session.coarse_dual");
  }
}

template <typename Mesh>
bool Session<Mesh>::adopt_federated_graph(Mesh& mesh, graph::Graph g) {
  refresh_coarse_graph(mesh);
  // After this refresh the next step()'s own refresh drains an empty delta
  // against a matching epoch — a no-op — so adopting here cannot shift the
  // trajectory even by a refresh reordering.
  if (g.xadj() != coarse_graph_.xadj() ||
      g.adjncy() != coarse_graph_.adjncy() ||
      g.adjwgt() != coarse_graph_.adjwgt() || g.vwgt() != coarse_graph_.vwgt())
    return false;
  coarse_graph_ = std::move(g);
  return true;
}

template <typename Mesh>
StepReport Session<Mesh>::step(Mesh& mesh) {
  PNR_PROF_SPAN("session.step");
  StepReport report;
  const auto elems = mesh.leaf_elements();
  report.elements = static_cast<std::int64_t>(elems.size());

  // Built on first use: PNR partitions the persistent coarse graph, so with
  // deferred metrics its steady-state step never touches the fine dual.
  std::optional<mesh::FineDual> dual;
  const auto ensure_dual = [&]() -> const mesh::FineDual& {
    if (!dual) {
      PNR_PROF_SPAN("session.dual_graph");
      dual.emplace(mesh::fine_dual_graph(mesh));
    }
    return *dual;
  };

  auto carried = carried_assignment(mesh, elems);
  if (carried && !defer_metrics_) {
    part::Partition prev(p_, *carried);
    report.cut_prev = part::cut_size(ensure_dual().graph, prev);
  }

  std::vector<part::PartId> fine_new;  // the freshly computed partition Π̂
  std::vector<part::PartId> adopted;   // what the session carries forward

  // Closed by hand before the metrics tail so the span measures only the
  // strategy's partitioning work.
  std::optional<prof::Span> partition_span(std::in_place, "session.partition");
  switch (strategy_) {
    case Strategy::kRSB:
    case Strategy::kRsbRemap:
    case Strategy::kMlkl:
    case Strategy::kMlklRemap: {
      part::Partition pi =
          (strategy_ == Strategy::kRSB || strategy_ == Strategy::kRsbRemap)
              ? part::rsb(ensure_dual().graph, p_, rng_)
              : part::multilevel_kl(ensure_dual().graph, p_, rng_);
      fine_new = pi.assign;
      if (carried) {
        part::Partition prev(p_, *carried);
        const auto remapped =
            part::remap_to_minimize_migration(ensure_dual().graph, prev, pi);
        report.migrated = count_moves(*carried, pi.assign);
        report.migrated_remapped = count_moves(*carried, remapped.assign);
        adopted = (strategy_ == Strategy::kRsbRemap ||
                   strategy_ == Strategy::kMlklRemap)
                      ? remapped.assign
                      : pi.assign;
      } else {
        adopted = pi.assign;
      }
      break;
    }
    case Strategy::kDiffusion:
    case Strategy::kMlDiffusion: {
      part::Partition pi =
          carried ? part::Partition(p_, *carried)
                  : part::multilevel_kl(ensure_dual().graph, p_, rng_);
      if (carried) {
        if (strategy_ == Strategy::kDiffusion)
          part::diffusion_rebalance(ensure_dual().graph, pi);
        else
          part::multilevel_diffusion(ensure_dual().graph, pi, rng_);
        report.migrated = count_moves(*carried, pi.assign);
        report.migrated_remapped = report.migrated;  // already incremental
      }
      fine_new = pi.assign;
      adopted = pi.assign;
      break;
    }
    case Strategy::kPNR: {
      refresh_coarse_graph(mesh);
      const engine::Repartitioner& planner = engine::repartitioner(engine_);
      engine::Input in;
      if (planner.needs_coords()) {
        if (!coarse_coords_valid_) {
          coarse_coords_ = mesh::coarse_centroids(mesh);
          coarse_coords_valid_ = true;
        }
        const auto n = static_cast<std::size_t>(coarse_graph_.num_vertices());
        in.coords = coarse_coords_;
        in.dim = n > 0 ? static_cast<int>(coarse_coords_.size() / n) : 0;
      }
      in.graph = &coarse_graph_;
      part::Partition current(p_, coarse_assign_);
      in.previous = first_ ? nullptr : &current;
      in.parts = p_;
      in.options = pnr_options_;
      in.rng = &rng_;
      coarse_assign_ = planner.run(in, nullptr).assign;
      adopted = mesh::project_coarse_assignment(mesh, elems, coarse_assign_);
      fine_new = adopted;
      if (carried) {
        report.migrated = count_moves(*carried, adopted);
        if (!defer_metrics_) {
          // The optimal relabeling is the identity for PNR (Figure 5):
          // moves are already minimal, but we report it for completeness.
          part::Partition prev(p_, *carried);
          part::Partition next(p_, adopted);
          const auto remapped =
              part::remap_to_minimize_migration(ensure_dual().graph, prev,
                                                next);
          report.migrated_remapped = count_moves(*carried, remapped.assign);
        }
      }
      break;
    }
  }

  partition_span.reset();

  if (!defer_metrics_) {
    PNR_PROF_SPAN("session.metrics");
    part::Partition adopted_pi(p_, adopted);
    report.cut_new =
        part::cut_size(ensure_dual().graph, part::Partition(p_, fine_new));
    report.imbalance = part::imbalance(ensure_dual().graph, adopted_pi);
    report.shared_vertices = mesh::shared_vertices(mesh, elems, adopted);
  }
  adopt(mesh, elems, adopted);
  first_ = false;
  last_report_ = report;
  last_had_carried_ = carried.has_value();
  last_carried_ = carried ? std::move(*carried) : std::vector<part::PartId>{};
  last_deferred_ = defer_metrics_;
  last_adapt_version_ = mesh.adapt_version();
  have_last_ = true;
  // Level-2 phase-boundary audit: the session is the one place that holds
  // every structure at once, so the full cross-structure contract (mesh ↔
  // refinement forest ↔ dual graph ↔ adopted partition) is checked here.
  if constexpr (check::kLevel >= 2) {
    const auto& dg = ensure_dual().graph;
    part::Partition adopted_pi(p_, adopted);
    check::enforce(check::check_mesh(mesh), "session.step");
    check::enforce(check::check_graph(dg), "session.step");
    check::enforce(check::check_forest(mesh, mesh::nested_dual_graph(mesh)),
                   "session.step");
    check::enforce(check::check_partition(dg, adopted_pi), "session.step");
    // Determinism cross-check for the pnr::exec runtime: recompute the
    // pooled partition metrics inside a SerialRegion (forcing the inline
    // single-chunk path) and demand bitwise-equal results. Integer
    // reductions commute, so any difference is a runtime bug.
    const part::Weight cut_par = part::cut_size(dg, adopted_pi);
    const auto weights_par = part::part_weights(dg, adopted_pi);
    {
      exec::SerialRegion serial;
      const part::Weight cut_ser = part::cut_size(dg, adopted_pi);
      const auto weights_ser = part::part_weights(dg, adopted_pi);
      std::string violation;
      if (cut_par != cut_ser)
        violation = "parallel cut_size " + std::to_string(cut_par) +
                    " != serial recompute " + std::to_string(cut_ser);
      else if (weights_par != weights_ser)
        violation = "parallel part_weights disagree with serial recompute";
      check::enforce_empty(violation, "session.step exec cross-check");
    }
  }
  return report;
}

template <typename Mesh>
StepReport Session<Mesh>::metrics(const Mesh& mesh) {
  PNR_REQUIRE_MSG(have_last_, "metrics() before any step()");
  PNR_REQUIRE_MSG(mesh.adapt_version() == last_adapt_version_,
                  "mesh adapted since the last step; deferred metrics are "
                  "unrecoverable");
  if (!last_deferred_) return last_report_;
  PNR_PROF_SPAN("session.metrics");
  const auto elems = mesh.leaf_elements();
  const auto dual = mesh::fine_dual_graph(mesh);
  // Everything deferred is recomputable from the adopted tags: adoption
  // only ever relabels the freshly computed Π̂, and cut, imbalance and
  // shared vertices are invariant under subset relabeling.
  std::vector<part::PartId> adopted(elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i)
    adopted[i] = mesh.tag(elems[i]);
  part::Partition adopted_pi(p_, adopted);
  StepReport report = last_report_;
  if (last_had_carried_) {
    part::Partition prev(p_, last_carried_);
    report.cut_prev = part::cut_size(dual.graph, prev);
    if (strategy_ == Strategy::kPNR) {
      const auto remapped =
          part::remap_to_minimize_migration(dual.graph, prev, adopted_pi);
      report.migrated_remapped = count_moves(last_carried_, remapped.assign);
    }
  }
  report.cut_new = part::cut_size(dual.graph, adopted_pi);
  report.imbalance = part::imbalance(dual.graph, adopted_pi);
  report.shared_vertices = mesh::shared_vertices(mesh, elems, adopted);
  last_report_ = report;
  last_deferred_ = false;  // cached: later calls return it directly
  return report;
}

template class Session<mesh::TriMesh>;
template class Session<mesh::TetMesh>;

}  // namespace pnr::pared
