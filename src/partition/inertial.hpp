#pragma once
// Geometric (inertial) recursive bisection — the coordinate-based family the
// paper's Section 3.1 discusses (Miller et al. [21]): project vertices onto
// the principal axis of their weighted inertia tensor and split at the
// weighted median, recursively, until p parts remain. Scalable but lower
// quality than spectral; engine::RibRepartitioner (RIB) runs it behind the
// engine interface.
//
// Parallelism is level-synchronous: every bisection of one recursion level
// is an independent grain-1 task on pnr::exec, and each task's math runs
// serially on the global coordinates, so the assignment is bitwise
// identical for any thread count. No induced subgraphs are built: a
// bisection needs only vertex weights and coordinates, so tasks carry
// plain global vertex-id lists.

#include <span>

#include "partition/partition.hpp"

namespace pnr::part {

/// `coords` is row-major n×dim (dim = 2 or 3); requires 1 <= p <= n. When
/// `levels` is given it receives the recursion depth.
Partition inertial_partition(const Graph& g, std::span<const double> coords,
                             int dim, PartId p, int* levels = nullptr);

}  // namespace pnr::part
