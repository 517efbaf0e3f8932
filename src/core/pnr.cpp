#include "core/pnr.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "partition/mlkl.hpp"
#include "partition/rebalance.hpp"
#include "partition/refine.hpp"
#include "util/assert.hpp"
#include "util/prof.hpp"

namespace pnr::core {

Pnr::Pnr(part::PartId p, PnrOptions options) : p_(p), options_(options) {
  PNR_REQUIRE(p >= 1);
  PNR_REQUIRE(options.alpha >= 0.0 && options.beta >= 0.0);
}

part::Partition Pnr::initial_partition(const graph::Graph& g,
                                       util::Rng& rng) const {
  PNR_PROF_SPAN("pnr.initial_partition");
  // Standard multilevel KL at a looser tolerance than the paper's ε; the
  // polish below tightens it.
  part::MlklOptions mo;
  mo.imbalance_tol = 0.03;
  part::Partition pi = part::multilevel_kl(g, p_, rng, mo);

  // Polish toward the paper's ε < 0.01 (no migration term: there is no
  // previous assignment yet).
  part::RefineOptions ropt;
  ropt.max_passes = options_.max_passes;
  if (options_.hard_balance) {
    part::SharedConnState chain;
    part::RebalanceOptions bopt;
    bopt.tol = options_.imbalance_tol / 2.0;
    part::rebalance_greedy(g, pi, bopt, &chain);
    ropt.hard_balance = true;
    ropt.imbalance_tol = options_.imbalance_tol;
    part::refine_partition(g, pi, ropt, &chain);
    bopt.tol = options_.imbalance_tol;
    part::rebalance_greedy(g, pi, bopt, &chain);
  } else {
    ropt.hard_balance = false;
    ropt.beta = options_.beta;
    part::refine_partition(g, pi, ropt);
  }
  if constexpr (check::kLevel >= 2)
    check::enforce(check::check_partition(g, pi), "pnr.initial_partition");
  return pi;
}

part::Partition Pnr::repartition(const graph::Graph& g,
                                 const part::Partition& current,
                                 util::Rng& rng,
                                 RepartitionStats* stats) const {
  PNR_PROF_SPAN("pnr.repartition");
  PNR_REQUIRE(current.valid_for(g));
  PNR_REQUIRE(current.num_parts == p_);

  if (stats) {
    stats->cut_before = part::cut_size(g, current);
    stats->imbalance_before = part::imbalance(g, current);
  }

  // Contraction restricted to same-subset pairs: the incoming assignment is
  // constant on every contracted vertex, so it survives to the coarsest
  // level. The constraint must be re-projected at every level, so we build
  // the hierarchy by hand. homes[k] is the incoming assignment expressed on
  // level k's graph (level 0 = g).
  graph::CoarsenOptions copt;
  copt.random_matching = options_.random_matching;
  copt.max_vertex_weight =
      std::max<graph::Weight>(1, g.total_vertex_weight() / (4 * p_));

  std::vector<graph::CoarseLevel> levels;
  std::vector<std::vector<part::PartId>> homes{current.assign};
  {
    PNR_PROF_SPAN("pnr.contract");
    // Never contract below a few vertices per subset, or the coarsest
    // level could not even represent the partition.
    const graph::VertexId floor_size =
        std::max<graph::VertexId>(options_.coarsest_size, 4 * p_);
    const graph::Graph* cur = &g;
    while (cur->num_vertices() > floor_size) {
      if (!options_.repartition_coarsest) copt.partition = &homes.back();
      graph::CoarseLevel level = graph::coarsen_once(*cur, rng, copt);
      const auto before = cur->num_vertices();
      const auto after = level.graph.num_vertices();
      if (after >= before - before / 10) break;  // contraction stalled
      std::vector<part::PartId> home(static_cast<std::size_t>(after), 0);
      for (std::size_t v = 0; v < level.fine_to_coarse.size(); ++v)
        home[static_cast<std::size_t>(level.fine_to_coarse[v])] =
            homes.back()[v];
      homes.push_back(std::move(home));
      levels.push_back(std::move(level));
      cur = &levels.back().graph;
    }
  }
  if (stats) stats->levels = static_cast<int>(levels.size());
  prof::count("pnr.levels", static_cast<std::int64_t>(levels.size()));

  // Start from the projected current assignment (modification (a)) or, in
  // the ablation, partition the coarsest graph from scratch.
  std::vector<part::PartId> assign;
  const graph::Graph& coarsest = levels.empty() ? g : levels.back().graph;
  if (options_.repartition_coarsest) {
    part::MlklOptions mo;
    assign = part::multilevel_kl(coarsest, p_, rng, mo).assign;
  } else {
    assign = homes.back();
  }

  part::RefineOptions ropt;
  ropt.alpha = options_.alpha;
  ropt.max_passes = options_.max_passes;
  if (options_.hard_balance) {
    // Two-phase refinement (see PnrOptions::hard_balance): an explicit
    // rebalance pass restores feasibility — its move count is close to the
    // Section 8 lower estimate, because the excess weight must move — and
    // then the migration-aware KL improves the cut under a hard balance cap
    // with the β term off (its quadratic lock would otherwise freeze every
    // heavy vertex and let the cut decay level after level).
    ropt.hard_balance = true;
    ropt.imbalance_tol = options_.imbalance_tol;
    ropt.beta = 0.0;
  } else {
    // Literal Eq. 1 objective (kept for the ablation bench).
    ropt.hard_balance = false;
    ropt.beta = options_.beta;
  }

  // Refine at the coarsest level, then uncoarsen and refine at each finer
  // level — the migration-aware KL of Section 9 at every step.
  PNR_PROF_SPAN("pnr.uncoarsen_refine");
  // The conn table (and quotient graph) stay exact across the calls of one
  // level's rebalance → refine chain, so only the first pass per level pays
  // the O(E) build; the projection to the next level invalidates them.
  part::SharedConnState chain;
  for (std::size_t k = levels.size() + 1; k-- > 0;) {
    const graph::Graph& level_graph = k == 0 ? g : levels[k - 1].graph;
    chain.invalidate();
    if (options_.hard_balance) {
      part::RebalanceOptions bopt;
      bopt.tol = options_.imbalance_tol / 2.0;
      bopt.alpha = options_.alpha;
      bopt.home = &homes[k];
      part::Partition pi(p_, std::move(assign));
      part::rebalance_greedy(level_graph, pi, bopt, &chain);
      assign = std::move(pi.assign);
    }
    ropt.home = &homes[k];
    part::Partition pi(p_, std::move(assign));
    part::refine_partition(level_graph, pi, ropt, &chain);
    if (k == 0 && options_.hard_balance) {
      // KL's per-move slack can leave a heavy-vertex overshoot; drain it,
      // let KL polish the cut from the feasible point, and drain once more
      // so the reported ε ≤ tol.
      part::RebalanceOptions bopt;
      bopt.tol = options_.imbalance_tol;
      bopt.alpha = options_.alpha;
      bopt.home = &homes[0];
      part::rebalance_greedy(level_graph, pi, bopt, &chain);
      part::refine_partition(level_graph, pi, ropt, &chain);
      part::rebalance_greedy(level_graph, pi, bopt, &chain);
    }
    assign = std::move(pi.assign);
    if (k > 0)
      assign =
          graph::project_partition(levels[k - 1].fine_to_coarse, assign);
  }

  part::Partition result(p_, std::move(assign));
  if constexpr (check::kLevel >= 2)
    check::enforce(check::check_partition(g, result), "pnr.repartition");
  if (stats) {
    stats->cut_after = part::cut_size(g, result);
    stats->migrate = part::migration_cost(g, current, result);
    stats->imbalance_after = part::imbalance(g, result);
  }
  return result;
}

}  // namespace pnr::core
