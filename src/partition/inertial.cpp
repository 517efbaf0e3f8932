#include "partition/inertial.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "exec/pool.hpp"
#include "partition/dense_eig.hpp"
#include "util/assert.hpp"

namespace pnr::part {

namespace {

// One pending subdomain: a set of global vertex ids to be split into
// `parts` subsets labelled [base, base + parts).
struct Task {
  std::vector<graph::VertexId> ids;
  PartId parts = 1;
  PartId base = 0;
};

// Serial weighted inertial bisection of one task over *global* coords and
// weights. Vertices are ordered by (projection, id) along the principal
// axis and the left side grows to its weight target. Returns the (left,
// right) id lists in curve order and clamps the left part count so each
// side can host its share.
std::pair<Task, Task> bisect(const Graph& g, std::span<const double> coords,
                             int dim, const Task& task) {
  const auto& ids = task.ids;
  const std::size_t n = ids.size();
  PNR_ASSERT(n >= 2 && task.parts >= 2);

  Weight total = 0;
  std::array<double, 3> centroid{0.0, 0.0, 0.0};
  double total_w = 0.0;
  for (const graph::VertexId v : ids) {
    const Weight wi = g.vertex_weight(v);
    total += wi;
    const auto w = static_cast<double>(wi);
    total_w += w;
    for (int d = 0; d < dim; ++d)
      centroid[static_cast<std::size_t>(d)] +=
          w * coords[static_cast<std::size_t>(v) *
                         static_cast<std::size_t>(dim) +
                     static_cast<std::size_t>(d)];
  }
  for (double& c : centroid) c /= total_w > 0.0 ? total_w : 1.0;

  // Weighted inertia (covariance) tensor; its top eigenvector is the axis
  // of maximal spread.
  std::vector<double> tensor(static_cast<std::size_t>(dim) * dim, 0.0);
  for (const graph::VertexId v : ids) {
    const auto w = static_cast<double>(g.vertex_weight(v));
    for (int r = 0; r < dim; ++r)
      for (int c = 0; c < dim; ++c) {
        const double dr = coords[static_cast<std::size_t>(v) *
                                     static_cast<std::size_t>(dim) +
                                 static_cast<std::size_t>(r)] -
                          centroid[static_cast<std::size_t>(r)];
        const double dc = coords[static_cast<std::size_t>(v) *
                                     static_cast<std::size_t>(dim) +
                                 static_cast<std::size_t>(c)] -
                          centroid[static_cast<std::size_t>(c)];
        tensor[static_cast<std::size_t>(r) * dim + c] += w * dr * dc;
      }
  }
  std::vector<double> evals, evecs;
  jacobi_eigensymm(tensor, dim, evals, evecs);
  // Largest eigenvalue is last (ascending order).
  const double* axis = evecs.data() + static_cast<std::size_t>(dim - 1) * dim;

  std::vector<double> proj(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (int d = 0; d < dim; ++d)
      s += axis[d] * coords[static_cast<std::size_t>(ids[i]) *
                                static_cast<std::size_t>(dim) +
                            static_cast<std::size_t>(d)];
    proj[i] = s;
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (proj[a] != proj[b]) return proj[a] < proj[b];
    return ids[a] < ids[b];
  });

  PartId pl = (task.parts + 1) / 2;
  const auto target0 = static_cast<Weight>(
      static_cast<double>(total) * pl / task.parts + 0.5);

  std::size_t cut = 0;  // first index of the right side in curve order
  Weight grown = 0;
  while (cut < n - 1 && grown < target0) {
    grown += g.vertex_weight(ids[order[cut]]);
    ++cut;
  }
  if (cut == 0) cut = 1;  // never leave a side empty

  Task left, right;
  left.ids.reserve(cut);
  right.ids.reserve(n - cut);
  for (std::size_t i = 0; i < cut; ++i) left.ids.push_back(ids[order[i]]);
  for (std::size_t i = cut; i < n; ++i) right.ids.push_back(ids[order[i]]);
  // Keep each side's part count within its vertex count (extreme weights).
  pl = std::min<PartId>(pl, static_cast<PartId>(left.ids.size()));
  pl = std::max<PartId>(pl, task.parts - static_cast<PartId>(right.ids.size()));
  left.parts = pl;
  left.base = task.base;
  right.parts = task.parts - pl;
  right.base = static_cast<PartId>(task.base + pl);
  return {std::move(left), std::move(right)};
}

}  // namespace

Partition inertial_partition(const Graph& g, std::span<const double> coords,
                             int dim, PartId p, int* levels) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  PNR_REQUIRE(dim == 2 || dim == 3);
  PNR_REQUIRE(coords.size() == n * static_cast<std::size_t>(dim));
  PNR_REQUIRE(p >= 1 && g.num_vertices() >= p);

  std::vector<PartId> assign(n, 0);
  int depth = 0;

  Task root;
  root.ids.resize(n);
  std::iota(root.ids.begin(), root.ids.end(), 0);
  root.parts = p;
  std::vector<Task> frontier;
  frontier.push_back(std::move(root));

  while (true) {
    // Retire finished subdomains; collect the ones still needing splits.
    std::vector<Task> open;
    for (Task& t : frontier) {
      if (t.parts <= 1) {
        for (const graph::VertexId v : t.ids)
          assign[static_cast<std::size_t>(v)] = t.base;
      } else {
        open.push_back(std::move(t));
      }
    }
    if (open.empty()) break;
    ++depth;

    // Level-synchronous fan-out: one grain-1 task per open subdomain, each
    // writing its (left, right) pair into a disjoint slot — deterministic
    // for any pool size.
    std::vector<std::pair<Task, Task>> split(open.size());
    exec::default_pool().parallel_for(
        static_cast<std::int64_t>(open.size()),
        [&](std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i)
            split[static_cast<std::size_t>(i)] =
                bisect(g, coords, dim, open[static_cast<std::size_t>(i)]);
        },
        exec::Chunking{1, 0});

    frontier.clear();
    for (auto& [left, right] : split) {
      frontier.push_back(std::move(left));
      frontier.push_back(std::move(right));
    }
  }
  if (levels != nullptr) *levels = depth;
  return Partition(p, std::move(assign));
}

}  // namespace pnr::part
