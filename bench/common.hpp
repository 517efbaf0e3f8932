#pragma once
// Shared machinery for the paper-table benches: growing the Section 6/7 mesh
// series to target sizes, performing the "small refinement step" of Figures
// 4/5 (a few hundred extra elements on a large mesh), and carrying element
// assignments across adaptation via the mesh tags.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "fem/estimator.hpp"
#include "fem/problems.hpp"
#include "mesh/dual.hpp"
#include "mesh/metrics.hpp"
#include "pared/session.hpp"
#include "pared/workloads.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pnr::bench {

std::int64_t small_refinement(mesh::TriMesh& mesh,
                              const fem::ScalarField2& field,
                              std::int64_t count, int max_level);

/// Apply the shared --threads flag to the process-wide exec pool. Absent
/// the flag, the pool keeps its startup width (PNR_THREADS env var or 1, so
/// default runs reproduce the serial legacy behaviour exactly). Returns the
/// resulting width for banners/JSON.
inline int apply_threads_flag(const util::Cli& cli) {
  const int threads =
      cli.get_int("threads", exec::default_pool().num_threads());
  exec::set_default_threads(threads);
  return exec::default_pool().num_threads();
}

/// Grow a corner series until the mesh has roughly `target` leaves: whole
/// levels while far away, then top-indicator refinement batches to land
/// within a few percent of the target (so the Figure 4/5 rows use the same
/// sizes the paper's do).
inline int grow_to(pared::CornerSeries2D& series, std::int64_t target,
                   int max_rounds = 64) {
  int rounds = 0;
  while (series.mesh().num_leaves() < target && rounds < max_rounds) {
    const std::int64_t gap = target - series.mesh().num_leaves();
    if (gap > series.mesh().num_leaves() / 3) {
      series.advance();
    } else {
      // Each marked leaf yields ~2.4 bisections with propagation. Cap the
      // depth near the level the whole-level schedule would have reached so
      // no single refinement tree grows heavier than a processor's share.
      const auto marks = std::max<std::int64_t>(8, gap * 10 / 24);
      if (small_refinement(series.mutable_mesh(), series.field(), marks,
                           series.level() + 6) == 0)
        break;
    }
    ++rounds;
  }
  return rounds;
}

/// The Figure 4/5 refinement step: bisect roughly the `count` leaves with the
/// largest L∞ indicator (plus conformity propagation), mimicking the paper's
/// +150..+300-element adaptations. Returns the number of bisections.
inline std::int64_t small_refinement(mesh::TriMesh& mesh,
                                     const fem::ScalarField2& field,
                                     std::int64_t count,
                                     int max_level = 1 << 14) {
  struct Scored {
    double eta;
    mesh::ElemIdx e;
  };
  std::vector<Scored> scored;
  for (const mesh::ElemIdx e : mesh.leaf_elements())
    if (mesh.element(e).level < max_level)
      scored.push_back({fem::element_indicator(mesh, e, field), e});
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.eta != b.eta) return a.eta > b.eta;
    return a.e < b.e;
  });
  std::vector<mesh::ElemIdx> marked;
  for (std::int64_t k = 0;
       k < count && k < static_cast<std::int64_t>(scored.size()); ++k)
    marked.push_back(scored[static_cast<std::size_t>(k)].e);
  return mesh.refine(marked);
}

/// Read the carried (tag) assignment of the current leaves; all tags must be
/// set (i.e. a session already adopted a partition on this mesh).
inline std::vector<part::PartId> carried(const mesh::TriMesh& mesh,
                                         const std::vector<mesh::ElemIdx>& elems) {
  std::vector<part::PartId> out(elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i) {
    out[i] = mesh.tag(elems[i]);
  }
  return out;
}

/// Standard bench banner: what this binary reproduces.
inline void banner(const char* figure, const char* description) {
  std::printf("== %s — %s\n", figure, description);
}

/// The Figure 4 / Figure 5 experiment: a series of meshes of increasing
/// size; each is partitioned (Π^{t-1}), slightly refined (M^t, assignment
/// carried onto the new leaves), and repartitioned (Π̂^t). Reported columns
/// mirror the paper's tables: element counts, cut before/after, migration,
/// and migration after the optimal subset relabeling Π̃.
struct MigrationRow {
  std::int64_t elems_before = 0;
  graph::Weight cut_before = 0;
  std::int64_t elems_after = 0;
  graph::Weight cut_after = 0;
  std::int64_t migrate = 0;
  std::int64_t migrate_remapped = 0;
};

inline MigrationRow migration_experiment(const mesh::TriMesh& base_mesh,
                                         const fem::ScalarField2& field,
                                         pared::Strategy strategy,
                                         part::PartId p, std::int64_t marks,
                                         std::uint64_t seed) {
  mesh::TriMesh mesh = base_mesh;  // private copy: tags carry the assignment
  pared::Session2D session(strategy, p, seed);
  MigrationRow row;
  row.elems_before = mesh.num_leaves();
  row.cut_before = session.step(mesh).cut_new;
  small_refinement(mesh, field, marks);
  const auto report = session.step(mesh);
  row.elems_after = report.elements;
  row.cut_after = report.cut_new;
  row.migrate = report.migrated;
  row.migrate_remapped = report.migrated_remapped;
  return row;
}

}  // namespace pnr::bench
