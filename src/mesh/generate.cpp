#include "mesh/generate.hpp"

#include <array>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pnr::mesh {

TriMesh structured_tri_mesh(int nx, int ny, double jitter, std::uint64_t seed) {
  PNR_REQUIRE(nx >= 1 && ny >= 1);
  PNR_REQUIRE(jitter >= 0.0 && jitter < 0.45);
  util::Rng rng(seed);
  TriMesh mesh;

  const double hx = 2.0 / nx;
  const double hy = 2.0 / ny;
  for (int j = 0; j <= ny; ++j)
    for (int i = 0; i <= nx; ++i) {
      double x = -1.0 + hx * i;
      double y = -1.0 + hy * j;
      const bool interior = i > 0 && i < nx && j > 0 && j < ny;
      if (interior && jitter > 0.0) {
        // Displacement capped at jitter·h/2 so no triangle can invert.
        x += rng.uniform(-jitter * hx / 2.0, jitter * hx / 2.0);
        y += rng.uniform(-jitter * hy / 2.0, jitter * hy / 2.0);
      }
      mesh.add_vertex({x, y});
    }

  auto vid = [&](int i, int j) {
    return static_cast<VertIdx>(j * (nx + 1) + i);
  };
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const VertIdx v00 = vid(i, j), v10 = vid(i + 1, j);
      const VertIdx v01 = vid(i, j + 1), v11 = vid(i + 1, j + 1);
      // Alternate the diagonal by cell parity for isotropy.
      if ((i + j) % 2 == 0) {
        mesh.add_element({v00, v10, v11});
        mesh.add_element({v00, v11, v01});
      } else {
        mesh.add_element({v00, v10, v01});
        mesh.add_element({v10, v11, v01});
      }
    }
  mesh.finalize();
  return mesh;
}

TetMesh structured_tet_mesh(int nx, int ny, int nz, double jitter,
                            std::uint64_t seed) {
  PNR_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1);
  PNR_REQUIRE(jitter >= 0.0 && jitter < 0.45);
  util::Rng rng(seed);
  TetMesh mesh;

  const double hx = 2.0 / nx;
  const double hy = 2.0 / ny;
  const double hz = 2.0 / nz;
  for (int k = 0; k <= nz; ++k)
    for (int j = 0; j <= ny; ++j)
      for (int i = 0; i <= nx; ++i) {
        double x = -1.0 + hx * i;
        double y = -1.0 + hy * j;
        double z = -1.0 + hz * k;
        const bool interior =
            i > 0 && i < nx && j > 0 && j < ny && k > 0 && k < nz;
        if (interior && jitter > 0.0) {
          x += rng.uniform(-jitter * hx / 2.0, jitter * hx / 2.0);
          y += rng.uniform(-jitter * hy / 2.0, jitter * hy / 2.0);
          z += rng.uniform(-jitter * hz / 2.0, jitter * hz / 2.0);
        }
        mesh.add_vertex({x, y, z});
      }

  auto vid = [&](int i, int j, int k) {
    return static_cast<VertIdx>((k * (ny + 1) + j) * (nx + 1) + i);
  };
  // Kuhn/Freudenthal subdivision: six tets per cube, one per permutation of
  // the unit steps; conforming across neighboring cubes by construction.
  constexpr std::array<std::array<int, 3>, 6> kPerms{{
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        for (const auto& perm : kPerms) {
          std::array<int, 3> at{i, j, k};
          std::array<VertIdx, 4> tv;
          tv[0] = vid(at[0], at[1], at[2]);
          for (int s = 0; s < 3; ++s) {
            ++at[static_cast<std::size_t>(perm[static_cast<std::size_t>(s)])];
            tv[static_cast<std::size_t>(s + 1)] = vid(at[0], at[1], at[2]);
          }
          mesh.add_element(tv);
        }
  mesh.finalize();
  return mesh;
}

TriMesh paper_initial_tri_mesh(std::uint64_t seed) {
  // 79 × 79 × 2 = 12,482 triangles ≈ the paper's 12,498.
  return structured_tri_mesh(79, 79, 0.25, seed);
}

TetMesh paper_initial_tet_mesh(std::uint64_t seed) {
  // 12 × 12 × 12 × 6 = 10,368 tets ≈ the paper's 9,540.
  return structured_tet_mesh(12, 12, 12, 0.2, seed);
}

}  // namespace pnr::mesh
