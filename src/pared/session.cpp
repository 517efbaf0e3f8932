#include "pared/session.hpp"

#include <bit>
#include <string>

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

/// Entries where `a` and `b` differ, each counted by its vertex weight in
/// `g` when one is given (a coarse vertex stands for its tree's leaves).
std::int64_t count_moves(const std::vector<part::PartId>& a,
                         const std::vector<part::PartId>& b,
                         const graph::Graph* g = nullptr) {
  std::int64_t moves = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i])
      moves += g ? g->vertex_weight(static_cast<graph::VertexId>(i)) : 1;
  return moves;
}

/// Π^{t-1} per root of M^0 from the leaf tags; nullopt when some leaf is
/// untagged (first step) or some tree's leaves disagree (tags written by a
/// fine-graph strategy).
std::optional<std::vector<part::PartId>> whole_tree_tags(
    const auto& mesh, const std::vector<mesh::ElemIdx>& elems) {
  std::vector<part::PartId> out(
      static_cast<std::size_t>(mesh.num_initial_elements()), -1);
  for (const mesh::ElemIdx e : elems) {
    const auto& t = mesh.element(e);
    if (t.tag < 0) return std::nullopt;
    auto& root = out[static_cast<std::size_t>(t.coarse)];
    if (root < 0)
      root = t.tag;
    else if (root != t.tag)
      return std::nullopt;
  }
  return out;
}

/// The first field where two reports differ ("" when they agree, with the
/// imbalance compared bitwise).
std::string report_difference(const StepReport& got, const StepReport& want) {
  const auto field = [](const char* name, auto a, auto b) {
    return std::string(name) + " " + std::to_string(a) + " != fine " +
           std::to_string(b);
  };
  if (got.cut_prev != want.cut_prev)
    return field("cut_prev", got.cut_prev, want.cut_prev);
  if (got.cut_new != want.cut_new)
    return field("cut_new", got.cut_new, want.cut_new);
  if (got.shared_vertices != want.shared_vertices)
    return field("shared_vertices", got.shared_vertices, want.shared_vertices);
  if (got.migrated != want.migrated)
    return field("migrated", got.migrated, want.migrated);
  if (got.migrated_remapped != want.migrated_remapped)
    return field("migrated_remapped", got.migrated_remapped,
                 want.migrated_remapped);
  if (std::bit_cast<std::uint64_t>(got.imbalance) !=
      std::bit_cast<std::uint64_t>(want.imbalance))
    return field("imbalance", got.imbalance, want.imbalance);
  return "";
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

  // Built on first use: PNR partitions the persistent coarse graph and reads
  // its metrics off it too, so its step never touches the fine dual.
  std::optional<mesh::FineDual> dual;
  const auto ensure_dual = [&]() -> const mesh::FineDual& {
    if (!dual) {
      PNR_PROF_SPAN("session.dual_graph");
      dual.emplace(mesh::fine_dual_graph(mesh));
    }
    return *dual;
  };

  // Π^{t-1} from the tags: PNR reads it per root of M^0 when every tree
  // carries one tag, everything else per leaf.
  std::optional<std::vector<part::PartId>> carried_roots;
  if (strategy_ == Strategy::kPNR)
    carried_roots = whole_tree_tags(mesh, elems);
  std::optional<std::vector<part::PartId>> carried;
  if (!carried_roots) carried = carried_assignment(mesh, elems);
  std::vector<part::PartId> adopted;  // what the session carries forward

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
      if (carried_roots)
        report.migrated =
            count_moves(*carried_roots, coarse_assign_, &coarse_graph_);
      else if (carried)
        report.migrated = count_moves(*carried, adopted);
      break;
    }
  }
  partition_span.reset();

  if constexpr (check::kLevel >= 2) {
    if (carried_roots) audit_carried_ = *carried_assignment(mesh, elems);
  }
  adopt(mesh, elems, adopted);
  first_ = false;
  last_report_ = report;
  last_coarse_ = strategy_ == Strategy::kPNR && !carried;
  last_had_carried_ = carried_roots || carried;
  last_carried_ = carried_roots ? std::move(*carried_roots)
                  : carried     ? std::move(*carried)
                                : std::vector<part::PartId>{};
  last_deferred_ = true;
  last_adapt_version_ = mesh.adapt_version();
  have_last_ = true;
  if (!defer_metrics_) settle_metrics(mesh, dual ? &*dual : nullptr);
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
  return last_report_;
}

template <typename Mesh>
StepReport Session<Mesh>::metrics(const Mesh& mesh) {
  PNR_REQUIRE_MSG(have_last_, "metrics() before any step()");
  PNR_REQUIRE_MSG(mesh.adapt_version() == last_adapt_version_,
                  "mesh adapted since the last step; deferred metrics are "
                  "unrecoverable");
  if (last_deferred_) settle_metrics(mesh, nullptr);
  return last_report_;
}

template <typename Mesh>
void Session<Mesh>::settle_metrics(const Mesh& mesh,
                                   const mesh::FineDual* dual) {
  PNR_PROF_SPAN("session.metrics");
  StepReport& report = last_report_;
  if (last_coarse_) {
    // Every tree is assigned whole, so each fine quantity is the same sum
    // over G: vertex weights count a tree's leaves, edge weights the
    // adjacent leaf pairs across a coarse face. The overlap matrix of the
    // remap is the fine one too, so the relabeling is the same. (It is the
    // identity for PNR, Figure 5: moves are already minimal, but we report
    // it for completeness.)
    const part::Partition next(p_, coarse_assign_);
    if (last_had_carried_) {
      const part::Partition prev(p_, last_carried_);
      report.cut_prev = part::cut_size(coarse_graph_, prev);
      const auto remapped =
          part::remap_to_minimize_migration(coarse_graph_, prev, next);
      report.migrated_remapped =
          count_moves(last_carried_, remapped.assign, &coarse_graph_);
    }
    report.cut_new = part::cut_size(coarse_graph_, next);
    report.imbalance = part::imbalance(coarse_graph_, next);
    report.shared_vertices =
        mesh::whole_tree_shared_vertices(mesh, coarse_assign_);
  } else {
    std::optional<mesh::FineDual> built;
    if (!dual) dual = &built.emplace(mesh::fine_dual_graph(mesh));
    fine_metrics(mesh, *dual, last_carried_, report);
  }
  last_deferred_ = false;  // cached: later reads return it directly
  // Level-2 audit of the coarse path: every field recomputed the old way,
  // from the fine dual graph and every leaf.
  if constexpr (check::kLevel >= 2) {
    if (last_coarse_) {
      const auto fine = mesh::fine_dual_graph(mesh);
      StepReport expect = report;
      fine_metrics(mesh, fine, audit_carried_, expect);
      check::enforce_empty(report_difference(report, expect),
                           "session.metrics coarse/fine audit");
    }
  }
}

template <typename Mesh>
void Session<Mesh>::fine_metrics(const Mesh& mesh, const mesh::FineDual& dual,
                                 const std::vector<part::PartId>& carried,
                                 StepReport& report) const {
  // Everything here is recomputable from the adopted tags: adoption only
  // ever relabels the freshly computed Π̂, and cut, imbalance and shared
  // vertices are invariant under subset relabeling.
  std::vector<part::PartId> adopted(dual.elems.size());
  for (std::size_t i = 0; i < adopted.size(); ++i)
    adopted[i] = mesh.tag(dual.elems[i]);
  part::Partition adopted_pi(p_, adopted);
  if (last_had_carried_) {
    part::Partition prev(p_, carried);
    report.cut_prev = part::cut_size(dual.graph, prev);
    if (strategy_ == Strategy::kPNR) {
      const auto remapped =
          part::remap_to_minimize_migration(dual.graph, prev, adopted_pi);
      report.migrated = count_moves(carried, adopted);
      report.migrated_remapped = count_moves(carried, remapped.assign);
    }
  }
  report.cut_new = part::cut_size(dual.graph, adopted_pi);
  report.imbalance = part::imbalance(dual.graph, adopted_pi);
  report.shared_vertices = mesh::shared_vertices(mesh, dual.elems, adopted);
}

template class Session<mesh::TriMesh>;
template class Session<mesh::TetMesh>;

}  // namespace pnr::pared
