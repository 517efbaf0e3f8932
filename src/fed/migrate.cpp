#include "fed/migrate.hpp"

#include <cstring>
#include <string>

#include "parallel/serialize.hpp"
#include "util/fnv.hpp"

namespace pnr::fed {

namespace {

void fail(std::string* why, std::string reason) {
  if (why) *why = std::move(reason);
}

}  // namespace

template <typename Mesh>
Bytes pack_subtree(const Mesh& mesh, mesh::ElemIdx root) {
  par::Writer w;
  const auto nodes = mesh::subtree_elements(mesh, root);
  w.put(static_cast<std::uint64_t>(nodes.size()));
  for (const mesh::ElemIdx e : nodes) {
    const auto& t = mesh.element(e);
    w.put(e);
    for (const mesh::VertIdx v : t.v) w.put(v);
    w.put(t.level);
    w.put(static_cast<std::uint8_t>(t.leaf));
    for (const mesh::VertIdx v : t.v)
      for (const double c : mesh::coords(mesh.vertex(v))) w.put(c);
  }
  return w.take();
}

template <typename Mesh>
std::optional<SubtreeInfo> verify_subtree(const Mesh& mesh,
                                          mesh::ElemIdx root,
                                          const std::uint8_t* data,
                                          std::size_t size, std::string* why) {
  if (root < 0 || root >= mesh.num_initial_elements() ||
      mesh.element(root).level != 0) {
    fail(why, "root is not an initial element");
    return std::nullopt;
  }
  par::TryReader r(data, size);
  const auto count = r.get<std::uint64_t>();
  if (!count) {
    fail(why, "truncated payload");
    return std::nullopt;
  }
  // Walk the replica's own DFS in lockstep: the payload must name the same
  // nodes in the same order with bit-identical topology and geometry, so a
  // valid payload is *exactly* pack_subtree of this replica.
  const auto expect = mesh::subtree_elements(mesh, root);
  if (*count != expect.size()) {
    fail(why, "node count " + std::to_string(*count) +
                  " does not match replica subtree of " +
                  std::to_string(expect.size()));
    return std::nullopt;
  }
  SubtreeInfo info;
  for (const mesh::ElemIdx want : expect) {
    const auto e = r.get<mesh::ElemIdx>();
    if (!e || *e != want) {
      fail(why, "node id diverges from replica subtree");
      return std::nullopt;
    }
    const auto& t = mesh.element(want);
    for (const mesh::VertIdx want_v : t.v) {
      const auto v = r.get<mesh::VertIdx>();
      if (!v || *v != want_v) {
        fail(why, "vertex ids diverge from replica");
        return std::nullopt;
      }
    }
    const auto level = r.get<std::int16_t>();
    const auto leaf = r.get<std::uint8_t>();
    if (!level || !leaf || *level != t.level ||
        *leaf != static_cast<std::uint8_t>(t.leaf)) {
      fail(why, "level/leaf flags diverge from replica");
      return std::nullopt;
    }
    for (const mesh::VertIdx v : t.v)
      for (const double x : mesh::coords(mesh.vertex(v))) {
        const auto c = r.get<double>();
        // Bitwise comparison: replicas are bit-identical, so even a NaN
        // payload must reproduce the replica's exact bit pattern.
        std::uint64_t got = 0, want_bits = 0;
        if (c) {
          std::memcpy(&got, &*c, sizeof(got));
          std::memcpy(&want_bits, &x, sizeof(want_bits));
        }
        if (!c || got != want_bits) {
          fail(why, "geometry diverges from replica");
          return std::nullopt;
        }
      }
    ++info.nodes;
    info.leaves += t.leaf;
  }
  if (!r.done()) {
    fail(why, "trailing bytes after subtree");
    return std::nullopt;
  }
  return info;
}

template <typename Mesh>
std::uint64_t mesh_fingerprint(const Mesh& mesh) {
  std::uint64_t h = util::kFnvSeed;
  h = util::fnv1a_value(mesh.num_leaves(), h);
  for (const mesh::ElemIdx e : mesh.leaf_elements()) {
    const auto& t = mesh.element(e);
    h = util::fnv1a_value(e, h);
    h = util::fnv1a_value(t.coarse, h);
    h = util::fnv1a_value(t.level, h);
    for (const mesh::VertIdx v : t.v) {
      h = util::fnv1a_value(v, h);
      for (const double c : mesh::coords(mesh.vertex(v)))
        h = util::fnv1a_value(c, h);
    }
  }
  return h;
}

std::uint64_t assignment_fingerprint(std::span<const part::PartId> assign) {
  std::uint64_t h = util::kFnvSeed;
  h = util::fnv1a_value(static_cast<std::uint64_t>(assign.size()), h);
  return util::fnv1a(assign.data(), assign.size() * sizeof(part::PartId), h);
}

template <typename Mesh>
std::vector<part::PartId> leaf_tags(const Mesh& mesh) {
  std::vector<part::PartId> tags;
  tags.reserve(static_cast<std::size_t>(mesh.num_leaves()));
  for (const mesh::ElemIdx e : mesh.leaf_elements()) tags.push_back(mesh.tag(e));
  return tags;
}

template Bytes pack_subtree<mesh::TriMesh>(const mesh::TriMesh&,
                                           mesh::ElemIdx);
template Bytes pack_subtree<mesh::TetMesh>(const mesh::TetMesh&,
                                           mesh::ElemIdx);
template std::optional<SubtreeInfo> verify_subtree<mesh::TriMesh>(
    const mesh::TriMesh&, mesh::ElemIdx, const std::uint8_t*, std::size_t,
    std::string*);
template std::optional<SubtreeInfo> verify_subtree<mesh::TetMesh>(
    const mesh::TetMesh&, mesh::ElemIdx, const std::uint8_t*, std::size_t,
    std::string*);
template std::uint64_t mesh_fingerprint<mesh::TriMesh>(const mesh::TriMesh&);
template std::uint64_t mesh_fingerprint<mesh::TetMesh>(const mesh::TetMesh&);
template std::vector<part::PartId> leaf_tags<mesh::TriMesh>(
    const mesh::TriMesh&);
template std::vector<part::PartId> leaf_tags<mesh::TetMesh>(
    const mesh::TetMesh&);

}  // namespace pnr::fed
