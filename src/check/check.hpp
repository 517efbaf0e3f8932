#pragma once
// pnr::check — deep structural validators for the core data structures. One
// audit per structure, each returning a structured CheckReport (never
// aborting on its own), unified behind the compile-time PNR_CHECK_LEVEL of
// check/level.hpp:
//
//   check_graph            CSR shape, symmetry, weight consistency, loops
//   check_mesh             tri/tet conformity, orientation, forest links
//   check_forest           refinement forest vs. the nested dual graph G
//                          (leaf counts = vertex weights, interface counts =
//                          edge weights — the contract PNR rests on)
//   check_partition        assignment shape, range, no empty subsets
//   check_partition_state  conn(v, part) rows, boundary set and subset
//                          weights vs. a from-scratch recompute
//   check_pairqueue        heap property + position-index consistency
//
// The validators are always compiled and callable (tests use them directly
// at every build level); only the *inline* audits at subsystem entry points
// are gated by PNR_CHECK_LEVEL. Phase-boundary call sites run a validator
// through enforce(), which bumps the check.audits / check.violations prof
// counters and aborts with the full report on any violation.

#include <vector>

#include "check/level.hpp"
#include "check/report.hpp"
#include "graph/csr.hpp"
#include "mesh/simplex_mesh.hpp"
#include "partition/conn.hpp"
#include "partition/pairqueue.hpp"
#include "partition/partition.hpp"

namespace pnr::check {

struct GraphCheckOptions {
  /// Most pnr graphs forbid self loops (dual graphs, contraction output);
  /// set to true for graphs where they are meaningful.
  bool allow_self_loops = false;
  /// Require each adjacency list sorted by neighbor id (holds for
  /// GraphBuilder output; contraction does not guarantee it).
  bool require_sorted_adjacency = false;
  /// Require strictly positive vertex weights (leaf counts are >= 1).
  bool require_positive_vertex_weights = false;
  /// Require strictly positive edge weights (adjacent-leaf-pair counts).
  bool require_positive_edge_weights = false;
};

/// Full CSR audit: shape, monotone xadj, neighbor range, duplicate arcs,
/// arc-level symmetry (weight equal in both directions), weight signs.
CheckReport check_graph(const graph::Graph& g,
                        const GraphCheckOptions& options = {});

/// Deep mesh audit: wraps the mesh's own check_invariants (conformity,
/// orientation, forest parent/child links, incidence maps, interface
/// counts) into a report.
template <typename Mesh>
CheckReport check_mesh(const Mesh& mesh);

/// Cross-structure audit of the refinement forest against the nested dual
/// graph G built from it: one vertex per initial element, vertex weight =
/// leaf count of its refinement tree, edge weight = adjacent leaf pairs
/// across the interface, total weight = |leaves|.
template <typename Mesh>
CheckReport check_forest(const Mesh& mesh, const graph::Graph& nested_dual);

/// Assignment audit: size matches the graph, every subset id in range,
/// every subset non-empty (the processor count is fixed).
CheckReport check_partition(const graph::Graph& g, const part::Partition& pi);

/// Incremental-state audit: every conn(v, part) row equals a from-scratch
/// rebuild (no wrong weights, no phantom or missing slots); when given, the
/// boundary set holds exactly the vertices with a cross-partition edge and
/// the cached subset weights match a recompute.
CheckReport check_partition_state(
    const graph::Graph& g, const part::Partition& pi,
    const part::ConnTable& conn, const part::VertexSet* boundary = nullptr,
    const std::vector<graph::Weight>* weights = nullptr);

/// Indexed-heap audit of the KL candidate table.
CheckReport check_pairqueue(const part::PairQueueTable& queue);

/// Phase-boundary enforcement: bump check.audits (and check.violations when
/// the report is bad), then abort printing the full report. Level gating is
/// the caller's: `if constexpr (pnr::check::kLevel >= 2) enforce(...)`.
void enforce(const CheckReport& report, const char* site);

}  // namespace pnr::check
