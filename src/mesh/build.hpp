#pragma once
// Validating mesh constructors for untrusted input.
//
// SimplexMesh assembly PNR_REQUIREs that its input is sane — distinct
// corners, nonzero measure, at most two elements per edge/face. That is the
// right contract for programmatic builders, but fatal for bytes that came
// from a file or a network frame: a hostile .ele line or CSR payload must
// not abort the process. try_build_mesh pre-checks everything the mesh's
// REQUIREs assume and returns nullopt (with a reason) instead, so the file
// readers (mesh/io) and the wire codec (svc/codec) can reject
// malformed meshes gracefully.

#include <optional>
#include <span>
#include <string>

#include "mesh/simplex_mesh.hpp"

namespace pnr::mesh {

/// Largest coordinate magnitude accepted from untrusted sources. Bounding
/// |x| keeps every downstream area/volume determinant finite (no inf − inf
/// NaN), which is what the constructors' orientation checks assume.
inline constexpr double kMaxCoordMagnitude = 1e100;

/// Build a finalized 0-level mesh from row-major vertex coordinates (n×D)
/// and element corners (count×(D+1)). Never aborts: wrong shapes,
/// non-finite or absurd coordinates, out-of-range indices, repeated
/// corners, zero-measure elements, and non-manifold edges (2D) or faces
/// (3D) all yield nullopt, with the reason written to `why` when given.
/// 3D additionally requires n < 2^21: face keys pack three vertex ids into
/// 21 bits each, beyond which the manifold pre-check (and the mesh's own
/// face map) would alias.
template <typename Mesh>
std::optional<Mesh> try_build_mesh(std::span<const double> coords,
                                   std::span<const VertIdx> elems,
                                   std::string* why = nullptr);

}  // namespace pnr::mesh
