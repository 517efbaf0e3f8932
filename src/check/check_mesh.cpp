#include <string>

#include "check/check.hpp"
#include "util/prof.hpp"

namespace pnr::check {

template <typename Mesh>
CheckReport check_mesh(const Mesh& mesh) {
  prof::count("check.mesh");
  CheckReport report(Mesh::kDim == 2 ? "tri_mesh" : "tet_mesh");
  const std::string violation = mesh.check_invariants();
  if (!violation.empty()) report.fail("mesh.invariant", violation);
  return report;
}

template <typename Mesh>
CheckReport check_forest(const Mesh& mesh, const graph::Graph& nested_dual) {
  prof::count("check.forest");
  CheckReport report("forest");

  const auto initial = mesh.num_initial_elements();
  if (nested_dual.num_vertices() != initial) {
    report.fail("forest.vertex_count",
                "nested dual has " +
                    std::to_string(nested_dual.num_vertices()) +
                    " vertices for " + std::to_string(initial) +
                    " initial elements");
    return report;
  }

  // Vertex weights are the leaf counts of each refinement tree, and they
  // must add up to the current leaf mesh size.
  graph::Weight total = 0;
  for (mesh::ElemIdx c = 0; c < initial; ++c) {
    const auto leaves = mesh.leaf_count(c);
    total += leaves;
    if (leaves <= 0)
      report.fail("forest.empty_tree", "initial element " + std::to_string(c) +
                                           " has leaf count " +
                                           std::to_string(leaves));
    if (nested_dual.vertex_weight(c) != leaves)
      report.fail("forest.leaf_weight",
                  "initial element " + std::to_string(c) + " has " +
                      std::to_string(leaves) + " leaves but dual weight " +
                      std::to_string(nested_dual.vertex_weight(c)));
  }
  if (total != mesh.num_leaves())
    report.fail("forest.total_leaves",
                "leaf counters sum to " + std::to_string(total) + " but " +
                    std::to_string(mesh.num_leaves()) + " leaves are alive");

  // Edge weights are the adjacent-leaf-pair counts across each interface;
  // the dual must carry exactly the nonzero interfaces, no extras.
  std::int64_t interfaces = 0;
  mesh.for_each_coarse_interface(
      [&](mesh::ElemIdx c1, mesh::ElemIdx c2, std::int64_t w) {
        ++interfaces;
        const graph::Weight dual_w = nested_dual.edge_weight(c1, c2);
        if (dual_w != w)
          report.fail("forest.interface_weight",
                      "interface {" + std::to_string(c1) + "," +
                          std::to_string(c2) + "} has " + std::to_string(w) +
                          " adjacent leaf pairs but dual edge weight " +
                          std::to_string(dual_w));
      });
  if (nested_dual.num_edges() != interfaces)
    report.fail("forest.edge_count",
                "nested dual has " + std::to_string(nested_dual.num_edges()) +
                    " edges for " + std::to_string(interfaces) +
                    " live interfaces");
  return report;
}

template CheckReport check_mesh(const mesh::TriMesh&);
template CheckReport check_mesh(const mesh::TetMesh&);
template CheckReport check_forest(const mesh::TriMesh&, const graph::Graph&);
template CheckReport check_forest(const mesh::TetMesh&, const graph::Graph&);

}  // namespace pnr::check
