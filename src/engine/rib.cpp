#include "engine/rib.hpp"

#include "partition/inertial.hpp"
#include "partition/remap.hpp"
#include "util/prof.hpp"

namespace pnr::engine {

part::Partition RibRepartitioner::run(const Input& in,
                                      core::RepartitionStats* stats) const {
  PNR_PROF_SPAN("engine.rib");
  prof::count("engine.runs");
  const graph::Graph& g = *in.graph;
  int levels = 0;
  part::Partition pi =
      part::inertial_partition(g, in.coords, in.dim, in.parts, &levels);
  // A recursive bisection into p parts makes p - 1 splits.
  if (in.parts > 1) prof::count("engine.rib.bisections", in.parts - 1);
  if (in.previous != nullptr) {
    PNR_PROF_SPAN("engine.remap");
    pi = part::remap_to_minimize_migration(g, *in.previous, pi);
  }

  if (stats != nullptr) {
    *stats = {};
    if (in.previous != nullptr) {
      stats->cut_before = part::cut_size(g, *in.previous);
      stats->imbalance_before = part::imbalance(g, *in.previous);
      stats->migrate = part::migration_cost(g, *in.previous, pi);
    }
    stats->cut_after = part::cut_size(g, pi);
    stats->imbalance_after = part::imbalance(g, pi);
    stats->levels = levels;
  }
  return pi;
}

}  // namespace pnr::engine
