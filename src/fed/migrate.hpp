#pragma once
// Federation migration payloads: refinement-history subtrees as wire bytes.
//
// A federated shard holds a *replicated* mesh (the PARED replication
// invariant — every daemon adapts the identical mesh deterministically) but
// each refinement tree is owned by exactly one shard. Migration therefore
// ships real serialized subtree bytes, and the receiver proves the payload
// matches its replica bit for bit (ids, topology, levels, geometry) before
// accepting ownership. par::ParedRankT's rank simulator ships these same
// payloads, so the simulator and the socket federation measure the same
// payload volumes. The layout:
//
//   u64 node_count, then per node (DFS, child[1] before child[0] popped):
//   i32 elem, kVertsPerElem × i32 vert, i16 level, u8 leaf,
//   kVertsPerElem × kDim × f64 coords,
//
// so a subtree of n nodes packs into 8 + n·(4 + 4V + 2 + 1 + 8VD) bytes
// (V = Mesh::kVertsPerElem, D = Mesh::kDim). Every function here is written
// once against the shared mesh vocabulary of mesh/simplex_mesh.hpp and
// instantiated for TriMesh and TetMesh.
//
// verify_subtree answers a trust boundary: payloads arrive over sockets, so
// every mismatch is a returned diagnosis, never a crash (the simulator,
// whose messages never leave the process, aborts on one).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mesh/simplex_mesh.hpp"
#include "partition/partition.hpp"

namespace pnr::fed {

using Bytes = std::vector<std::uint8_t>;

/// Serialize the refinement-history subtree rooted at initial element
/// `root` (which must be alive) into a migration payload.
template <typename Mesh>
Bytes pack_subtree(const Mesh& mesh, mesh::ElemIdx root);

/// What a verified payload contained.
struct SubtreeInfo {
  std::int64_t nodes = 0;   ///< history nodes (interior + leaves)
  std::int64_t leaves = 0;  ///< current finest-mesh members
};

/// Prove `data` is exactly pack_subtree(mesh, root) — element ids in range,
/// every node matching the replica bit for bit, no trailing bytes. Returns
/// nullopt with `why` set on the first mismatch; never aborts (payloads
/// cross a process trust boundary).
template <typename Mesh>
std::optional<SubtreeInfo> verify_subtree(const Mesh& mesh,
                                          mesh::ElemIdx root,
                                          const std::uint8_t* data,
                                          std::size_t size,
                                          std::string* why = nullptr);

/// Digest of the current leaves (ids, ancestry, levels, geometry bits) in
/// deterministic leaf order. Replicated meshes agree on this after every
/// adaptation round; any divergence between daemons is caught here before
/// it can corrupt a migration plan.
template <typename Mesh>
std::uint64_t mesh_fingerprint(const Mesh& mesh);

/// Digest of an assignment vector (leaf/coarse order as passed).
std::uint64_t assignment_fingerprint(std::span<const part::PartId> assign);

/// Current element tags in dense leaf order (the adopted assignment).
template <typename Mesh>
std::vector<part::PartId> leaf_tags(const Mesh& mesh);

}  // namespace pnr::fed
