#pragma once
// Shared index types and hash keys for the mesh layer. Elements and vertices
// are referenced by 32-bit indices into flat arrays; edges and faces are
// identified by packed sorted vertex tuples so they hash identically from
// either side.

#include <array>
#include <cstddef>
#include <cstdint>

namespace pnr::mesh {

using VertIdx = std::int32_t;
using ElemIdx = std::int32_t;

constexpr VertIdx kNoVert = -1;
constexpr ElemIdx kNoElem = -1;

/// Canonical key for the undirected edge {a, b}.
inline std::uint64_t edge_key(VertIdx a, VertIdx b) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  return (hi << 32) | lo;
}

/// Canonical key for the triangular face {a, b, c}. Vertices fit in 21 bits
/// each (meshes up to 2M vertices), packed sorted.
inline std::uint64_t face_key(VertIdx a, VertIdx b, VertIdx c) {
  VertIdx v0 = a, v1 = b, v2 = c;
  if (v0 > v1) { const VertIdx t = v0; v0 = v1; v1 = t; }
  if (v1 > v2) { const VertIdx t = v1; v1 = v2; v2 = t; }
  if (v0 > v1) { const VertIdx t = v0; v0 = v1; v1 = t; }
  return (static_cast<std::uint64_t>(v0) << 42) |
         (static_cast<std::uint64_t>(v1) << 21) |
         static_cast<std::uint64_t>(v2);
}

/// edge_key of a vertex pair, face_key of a vertex triple.
template <std::size_t K>
std::uint64_t simplex_key(const std::array<VertIdx, K>& v) {
  static_assert(K == 2 || K == 3);
  if constexpr (K == 2) return edge_key(v[0], v[1]);
  else return face_key(v[0], v[1], v[2]);
}

struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

struct Point3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// A point's D coordinates in x, y[, z] order.
inline std::array<double, 2> coords(const Point2& p) { return {p.x, p.y}; }
inline std::array<double, 3> coords(const Point3& p) {
  return {p.x, p.y, p.z};
}

/// The point with coordinates `c`, the inverse of coords.
inline Point2 to_point(const std::array<double, 2>& c) { return {c[0], c[1]}; }
inline Point3 to_point(const std::array<double, 3>& c) {
  return {c[0], c[1], c[2]};
}

}  // namespace pnr::mesh
