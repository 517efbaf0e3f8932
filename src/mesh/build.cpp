#include "mesh/build.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <unordered_map>

namespace pnr::mesh {

namespace {

void fail(std::string* why, const char* reason) {
  if (why) *why = reason;
}

bool coords_ok(std::span<const double> coords) {
  for (const double x : coords)
    if (!std::isfinite(x) || std::fabs(x) > kMaxCoordMagnitude) return false;
  return true;
}

bool indices_ok(std::span<const VertIdx> elems, std::int64_t n) {
  for (const VertIdx v : elems)
    if (v < 0 || v >= n) return false;
  return true;
}

}  // namespace

template <typename Mesh>
std::optional<Mesh> try_build_mesh(std::span<const double> coords,
                                   std::span<const VertIdx> elems,
                                   std::string* why) {
  constexpr std::size_t dim = Mesh::kDim;
  constexpr std::size_t per = Mesh::kVertsPerElem;
  constexpr bool is_2d = dim == 2;
  if (coords.empty() || coords.size() % dim || elems.empty() ||
      elems.size() % per) {
    fail(why, is_2d ? "mesh arrays have the wrong shape for 2D"
                    : "mesh arrays have the wrong shape for 3D");
    return std::nullopt;
  }
  const auto n = static_cast<std::int64_t>(coords.size() / dim);
  const std::size_t count = elems.size() / per;
  if (!is_2d && n >= (1 << 21)) {
    fail(why, "3D meshes are limited to 2^21 vertices");
    return std::nullopt;
  }
  if (!coords_ok(coords) || !indices_ok(elems, n)) {
    fail(why, "coordinates or element indices out of range");
    return std::nullopt;
  }
  // Pre-validate what SimplexMesh::add_element and finalize PNR_REQUIRE.
  // Orientation does not matter (finalize flips negative elements); zero
  // measure does.
  const auto coord = [&](VertIdx v, std::size_t d) {
    return coords[static_cast<std::size_t>(v) * dim + d];
  };
  std::unordered_map<std::uint64_t, int> facet_count;
  facet_count.reserve(count * per);
  for (std::size_t e = 0; e < count; ++e) {
    const auto v = elems.subspan(e * per, per);
    for (std::size_t i = 0; i < per; ++i)
      for (std::size_t j = i + 1; j < per; ++j)
        if (v[i] == v[j]) {
          fail(why, is_2d ? "repeated corner in a triangle"
                          : "repeated corner in a tetrahedron");
          return std::nullopt;
        }
    if constexpr (is_2d) {
      const double ax = coord(v[0], 0), ay = coord(v[0], 1);
      const double bx = coord(v[1], 0), by = coord(v[1], 1);
      const double cx = coord(v[2], 0), cy = coord(v[2], 1);
      const double area = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay);
      if (!(area != 0.0)) {
        fail(why, "degenerate (zero-area) triangle");
        return std::nullopt;
      }
    } else {
      double d[3][3];
      for (std::size_t k = 0; k < 3; ++k)
        for (std::size_t c = 0; c < 3; ++c)
          d[k][c] = coord(v[k + 1], c) - coord(v[0], c);
      const double vol = d[0][0] * (d[1][1] * d[2][2] - d[1][2] * d[2][1]) -
                         d[0][1] * (d[1][0] * d[2][2] - d[1][2] * d[2][0]) +
                         d[0][2] * (d[1][0] * d[2][1] - d[1][1] * d[2][0]);
      if (!(vol != 0.0) || !std::isfinite(vol)) {
        fail(why, "degenerate (zero-volume) tetrahedron");
        return std::nullopt;
      }
    }
    // Each facet omits one corner: an edge in 2D, a face in 3D.
    for (std::size_t skip = 0; skip < per; ++skip) {
      std::array<VertIdx, dim> f;
      for (std::size_t i = 0, k = 0; i < per; ++i)
        if (i != skip) f[k++] = v[i];
      if (++facet_count[simplex_key(f)] > 2) {
        fail(why, is_2d ? "non-manifold edge (more than two triangles)"
                        : "non-manifold face (more than two tetrahedra)");
        return std::nullopt;
      }
    }
  }
  Mesh mesh;
  for (std::int64_t v = 0; v < n; ++v) {
    std::array<double, dim> p;
    for (std::size_t d = 0; d < dim; ++d) p[d] = coord(static_cast<VertIdx>(v), d);
    mesh.add_vertex(to_point(p));
  }
  for (std::size_t e = 0; e < count; ++e) {
    typename Mesh::Corners corners;
    std::copy_n(elems.begin() + static_cast<std::ptrdiff_t>(e * per), per,
                corners.begin());
    mesh.add_element(corners);
  }
  mesh.finalize();
  return mesh;
}

template std::optional<TriMesh> try_build_mesh(std::span<const double>,
                                               std::span<const VertIdx>,
                                               std::string*);
template std::optional<TetMesh> try_build_mesh(std::span<const double>,
                                               std::span<const VertIdx>,
                                               std::string*);

}  // namespace pnr::mesh
