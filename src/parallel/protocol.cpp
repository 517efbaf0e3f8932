#include "parallel/protocol.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "fed/migrate.hpp"
#include "graph/builder.hpp"
#include "mesh/dual.hpp"
#include "parallel/serialize.hpp"
#include "util/assert.hpp"
#include "util/prof.hpp"

namespace pnr::par {

namespace {
constexpr int kTagTreeCount = 103;
constexpr int kTagTree = 104;

struct EdgeTriple {
  mesh::ElemIdx a;
  mesh::ElemIdx b;
  graph::Weight w;
};
}  // namespace

template <typename Mesh>
ParedRankT<Mesh>::ParedRankT(Comm& comm, Mesh mesh, core::PnrOptions options,
                             std::uint64_t seed)
    : comm_(comm),
      mesh_(std::move(mesh)),
      pnr_(static_cast<part::PartId>(comm.size()), options),
      // Every rank must draw the same random stream wherever the replicated
      // algorithm touches randomness (coordinator-only code may diverge).
      rng_(seed) {
  ownership_.assign(static_cast<std::size_t>(mesh_.num_initial_elements()), 0);
}

template <typename Mesh>
void ParedRankT<Mesh>::initialize() {
  Bytes assignment;
  if (comm_.rank() == kCoordinator) {
    const auto g = mesh::nested_dual_graph(mesh_);
    const auto pi = pnr_.initial_partition(g, rng_);
    Writer w;
    w.put_vector(pi.assign);
    assignment = w.take();
  }
  assignment = comm_.broadcast(kCoordinator, std::move(assignment));
  Reader r(std::move(assignment));
  ownership_ = r.get_vector<part::PartId>();
  PNR_REQUIRE(ownership_.size() ==
              static_cast<std::size_t>(mesh_.num_initial_elements()));
}

template <typename Mesh>
std::int64_t ParedRankT<Mesh>::owned_leaves() const {
  std::int64_t total = 0;
  for (mesh::ElemIdx c = 0; c < mesh_.num_initial_elements(); ++c)
    if (ownership_[static_cast<std::size_t>(c)] == comm_.rank())
      total += mesh_.leaf_count(c);
  return total;
}

template <typename Mesh>
graph::Graph ParedRankT<Mesh>::assemble_coarse_graph(StepStats& stats) {
  PNR_PROF_SPAN("protocol.weights");
  // P1: weights for the trees this rank owns. An interface edge (a, b) is
  // reported by the owner of min(a, b) so exactly one rank sends it.
  std::vector<mesh::ElemIdx> owned;
  std::vector<graph::Weight> owned_weights;
  for (mesh::ElemIdx c = 0; c < mesh_.num_initial_elements(); ++c)
    if (ownership_[static_cast<std::size_t>(c)] == comm_.rank()) {
      owned.push_back(c);
      owned_weights.push_back(mesh_.leaf_count(c));
    }

  std::vector<EdgeTriple> edges;
  {
    std::unordered_map<std::uint64_t, graph::Weight> acc;
    mesh_.for_each_leaf_interface([&](mesh::ElemIdx e1, mesh::ElemIdx e2) {
      if (e1 == mesh::kNoElem || e2 == mesh::kNoElem) return;
      const mesh::ElemIdx c1 = mesh_.element(e1).coarse;
      const mesh::ElemIdx c2 = mesh_.element(e2).coarse;
      if (c1 == c2) return;
      const mesh::ElemIdx lo = std::min(c1, c2), hi = std::max(c1, c2);
      if (ownership_[static_cast<std::size_t>(lo)] != comm_.rank()) return;
      ++acc[(static_cast<std::uint64_t>(hi) << 32) |
            static_cast<std::uint64_t>(lo)];
    });
    edges.reserve(acc.size());
    for (const auto& [key, w] : acc)
      edges.push_back({static_cast<mesh::ElemIdx>(key & 0xffffffffull),
                       static_cast<mesh::ElemIdx>(key >> 32), w});
    std::sort(edges.begin(), edges.end(),
              [](const EdgeTriple& x, const EdgeTriple& y) {
                if (x.a != y.a) return x.a < y.a;
                return x.b < y.b;
              });
  }

  // P2: ship to the coordinator.
  Writer w;
  w.put_vector(owned);
  w.put_vector(owned_weights);
  w.put_vector(edges);
  const auto all = comm_.gather(kCoordinator, w.take());

  // P3 (coordinator side): rebuild G.
  if (comm_.rank() != kCoordinator) return {};
  graph::GraphBuilder builder(mesh_.num_initial_elements());
  std::int64_t payload = 0;
  for (const Bytes& msg : all) {
    payload += static_cast<std::int64_t>(msg.size());
    Reader r(msg);
    const auto ids = r.get_vector<mesh::ElemIdx>();
    const auto weights = r.get_vector<graph::Weight>();
    const auto triples = r.get_vector<EdgeTriple>();
    PNR_REQUIRE(ids.size() == weights.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      builder.set_vertex_weight(ids[i], weights[i]);
    for (const EdgeTriple& t : triples) builder.add_edge(t.a, t.b, t.w);
  }
  stats.payload_bytes += payload;
  return builder.build();
}

template <typename Mesh>
void ParedRankT<Mesh>::migrate_trees(const std::vector<part::PartId>& next,
                                     StepStats& stats) {
  PNR_PROF_SPAN("protocol.migrate");
  const std::int64_t payload_before = stats.payload_bytes;
  const std::int64_t elements_before = stats.elements_moved;
  const int me = comm_.rank();
  // Count and serialize outgoing trees per destination.
  std::vector<std::vector<mesh::ElemIdx>> outgoing(
      static_cast<std::size_t>(comm_.size()));
  for (mesh::ElemIdx c = 0; c < mesh_.num_initial_elements(); ++c) {
    const auto sc = static_cast<std::size_t>(c);
    if (ownership_[sc] == me && next[sc] != me)
      outgoing[static_cast<std::size_t>(next[sc])].push_back(c);
  }

  for (int dest = 0; dest < comm_.size(); ++dest) {
    if (dest == me) continue;
    Writer header;
    header.put(static_cast<std::uint64_t>(
        outgoing[static_cast<std::size_t>(dest)].size()));
    comm_.send(dest, kTagTreeCount, header.take());
    for (const mesh::ElemIdx c : outgoing[static_cast<std::size_t>(dest)]) {
      Bytes payload = fed::pack_subtree(mesh_, c);
      stats.payload_bytes += static_cast<std::int64_t>(payload.size());
      ++stats.trees_moved;
      stats.elements_moved += mesh_.leaf_count(c);
      comm_.send(dest, kTagTree, std::move(payload));
    }
  }
  // Each incoming tree must match our replica bit for bit (the replication
  // invariant); the sender ships its trees in ascending root order.
  for (int src = 0; src < comm_.size(); ++src) {
    if (src == me) continue;
    Reader header(comm_.recv(src, kTagTreeCount));
    const auto count = header.get<std::uint64_t>();
    std::vector<mesh::ElemIdx> incoming;
    for (mesh::ElemIdx c = 0; c < mesh_.num_initial_elements(); ++c) {
      const auto sc = static_cast<std::size_t>(c);
      if (ownership_[sc] == src && next[sc] == me) incoming.push_back(c);
    }
    PNR_REQUIRE(count == incoming.size());
    for (const mesh::ElemIdx c : incoming) {
      const Bytes payload = comm_.recv(src, kTagTree);
      std::string why;
      PNR_REQUIRE_MSG(fed::verify_subtree(mesh_, c, payload.data(),
                                          payload.size(), &why),
                      why.c_str());
    }
  }
  ownership_ = next;
  // This rank's own contributions (the step()'s all-reduce would multiply
  // global numbers by the rank count).
  prof::count("protocol.payload_bytes", stats.payload_bytes - payload_before);
  prof::count("protocol.elements_moved",
              stats.elements_moved - elements_before);
}

template <typename Mesh>
StepStats ParedRankT<Mesh>::step(const Field& field,
                                 const fem::MarkOptions& mark) {
  PNR_PROF_SPAN("protocol.step");
  StepStats stats;

  // P0: deterministic replicated adaptation.
  {
    PNR_PROF_SPAN("protocol.adapt");
    const auto to_coarsen = fem::mark_for_coarsening(mesh_, field, mark);
    stats.merges = mesh_.coarsen(to_coarsen);
    const auto to_refine = fem::mark_for_refinement(mesh_, field, mark);
    stats.bisections = mesh_.refine(to_refine);
  }

  // P1 + P2: weights to the coordinator. P3: repartition and broadcast.
  graph::Graph g = assemble_coarse_graph(stats);
  Bytes reply;
  if (comm_.rank() == kCoordinator) {
    part::Partition current(static_cast<part::PartId>(comm_.size()),
                            ownership_);
    core::RepartitionStats rstats;
    const auto pi = pnr_.repartition(g, current, rng_, &rstats);
    Writer w;
    w.put(rstats.cut_after);
    w.put(rstats.imbalance_after);
    w.put_vector(pi.assign);
    reply = w.take();
  }
  reply = comm_.broadcast(kCoordinator, std::move(reply));
  Reader r(std::move(reply));
  stats.cut_after = r.get<graph::Weight>();
  stats.imbalance_after = r.get<double>();
  const auto next = r.get_vector<part::PartId>();
  PNR_REQUIRE(next.size() == ownership_.size());

  migrate_trees(next, stats);

  // Aggregate the per-rank counters so every rank reports global numbers.
  stats.trees_moved = comm_.all_reduce_sum(stats.trees_moved);
  stats.elements_moved = comm_.all_reduce_sum(stats.elements_moved);
  stats.payload_bytes = comm_.all_reduce_sum(stats.payload_bytes);
  return stats;
}

template class ParedRankT<mesh::TriMesh>;
template class ParedRankT<mesh::TetMesh>;

}  // namespace pnr::par
