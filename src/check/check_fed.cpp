#include "check/check_fed.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

namespace pnr::check {

namespace {

std::string edge_str(const FedEdge& e) {
  std::string s = "{";
  s += std::to_string(e.a);
  s += ",";
  s += std::to_string(e.b);
  s += "} w=";
  s += std::to_string(e.w);
  return s;
}

std::uint64_t edge_key(const FedEdge& e) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.b)) << 32) |
         static_cast<std::uint32_t>(e.a);
}

}  // namespace

CheckReport check_fed_reports(mesh::ElemIdx coarse,
                              std::span<const FedShardReport> reports) {
  CheckReport report("fed interface reports");
  const auto n = static_cast<std::size_t>(coarse);

  // Vertex coverage: every coarse vertex owned by exactly one shard, with a
  // positive leaf count.
  std::vector<std::int32_t> owner(n, -1);
  for (std::size_t s = 0; s < reports.size(); ++s) {
    const FedShardReport& r = reports[s];
    if (r.owned.size() != r.owned_weights.size()) {
      report.fail("fed.vertex.shape",
                  "shard " + std::to_string(s) + " reports " +
                      std::to_string(r.owned.size()) + " vertices but " +
                      std::to_string(r.owned_weights.size()) + " weights");
      continue;
    }
    for (std::size_t i = 0; i < r.owned.size(); ++i) {
      const mesh::ElemIdx v = r.owned[i];
      if (v < 0 || v >= coarse) {
        report.fail("fed.vertex.range",
                    "shard " + std::to_string(s) + " owns vertex " +
                        std::to_string(v) + " outside [0," +
                        std::to_string(coarse) + ")");
        continue;
      }
      if (owner[static_cast<std::size_t>(v)] >= 0)
        report.fail("fed.vertex.duplicate",
                    "vertex " + std::to_string(v) + " owned by shards " +
                        std::to_string(owner[static_cast<std::size_t>(v)]) +
                        " and " + std::to_string(s));
      else
        owner[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(s);
      if (r.owned_weights[i] <= 0)
        report.fail("fed.vertex.weight",
                    "vertex " + std::to_string(v) + " has leaf count " +
                        std::to_string(r.owned_weights[i]));
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    if (owner[v] < 0)
      report.fail("fed.vertex.missing",
                  "vertex " + std::to_string(v) + " owned by no shard");

  // Edge well-formedness plus the cross-shard agreement protocol: the owner
  // of min(a,b) is primary for the edge; the owner of max(a,b), when
  // different, must echo it with the identical weight.
  std::unordered_map<std::uint64_t, FedEdge> primaries;
  std::unordered_map<std::uint64_t, FedEdge> echoes;
  const auto well_formed = [&](std::size_t s, const FedEdge& e) {
    if (e.a < 0 || e.b < 0 || e.a >= coarse || e.b >= coarse) {
      report.fail("fed.edge.range", "shard " + std::to_string(s) +
                                        " edge " + edge_str(e) +
                                        " endpoint out of range");
      return false;
    }
    if (e.a >= e.b) {
      report.fail("fed.edge.order", "shard " + std::to_string(s) + " edge " +
                                        edge_str(e) + " not ordered a < b");
      return false;
    }
    if (e.w <= 0) {
      report.fail("fed.edge.weight", "shard " + std::to_string(s) + " edge " +
                                         edge_str(e) + " non-positive");
      return false;
    }
    return true;
  };
  for (std::size_t s = 0; s < reports.size(); ++s) {
    for (const FedEdge& e : reports[s].primary) {
      if (!well_formed(s, e)) continue;
      if (owner[static_cast<std::size_t>(e.a)] !=
          static_cast<std::int32_t>(s))
        report.fail("fed.edge.owner",
                    "shard " + std::to_string(s) + " primary for edge " +
                        edge_str(e) + " without owning vertex " +
                        std::to_string(e.a));
      if (!primaries.emplace(edge_key(e), e).second)
        report.fail("fed.edge.duplicate",
                    "edge " + edge_str(e) + " reported primary twice");
    }
    for (const FedEdge& e : reports[s].echo) {
      if (!well_formed(s, e)) continue;
      if (owner[static_cast<std::size_t>(e.b)] !=
          static_cast<std::int32_t>(s))
        report.fail("fed.edge.owner",
                    "shard " + std::to_string(s) + " echoes edge " +
                        edge_str(e) + " without owning vertex " +
                        std::to_string(e.b));
      if (!echoes.emplace(edge_key(e), e).second)
        report.fail("fed.edge.duplicate",
                    "edge " + edge_str(e) + " echoed twice");
    }
  }
  for (const auto& [key, e] : primaries) {
    const std::int32_t lo_owner = owner[static_cast<std::size_t>(e.a)];
    const std::int32_t hi_owner = owner[static_cast<std::size_t>(e.b)];
    if (lo_owner == hi_owner) continue;  // intra-shard edge: no echo due
    const auto it = echoes.find(key);
    if (it == echoes.end())
      report.fail("fed.edge.unmatched",
                  "cross-shard edge " + edge_str(e) + " never echoed by the " +
                      std::to_string(e.b) + "-side owner");
    else if (it->second.w != e.w)
      report.fail("fed.edge.weight",
                  "edge {" + std::to_string(e.a) + "," + std::to_string(e.b) +
                      "} weight disagreement: primary " + std::to_string(e.w) +
                      " vs echo " + std::to_string(it->second.w));
  }
  for (const auto& [key, e] : echoes)
    if (primaries.find(key) == primaries.end())
      report.fail("fed.edge.unmatched",
                  "echoed edge " + edge_str(e) + " has no primary report");
  return report;
}

CheckReport check_fed_commit(std::int64_t total_leaves,
                             std::span<const std::int64_t> owned_leaves,
                             std::span<const std::uint64_t> assign_fps,
                             std::uint64_t expect_fp) {
  CheckReport report("fed commit barrier");
  std::int64_t sum = 0;
  for (const std::int64_t leaves : owned_leaves) sum += leaves;
  if (sum != total_leaves)
    report.fail("fed.leaves.sum",
                "shards own " + std::to_string(sum) + " leaves of " +
                    std::to_string(total_leaves) +
                    " (lost or duplicated trees)");
  for (std::size_t s = 0; s < assign_fps.size(); ++s)
    if (assign_fps[s] != expect_fp)
      report.fail("fed.assign.divergent",
                  "shard " + std::to_string(s) +
                      " adopted assignment digest diverges from the "
                      "coordinator");
  return report;
}

}  // namespace pnr::check
