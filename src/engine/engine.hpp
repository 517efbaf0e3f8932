#pragma once
// pnr::engine — pluggable repartitioner backends behind one interface.
//
// The paper's migration-aware MLKL (core::Pnr) is one way to turn the
// coarse dual graph + refinement-forest leaf weights + Π^{t-1} into Π̂^t;
// Burstedde & Holke (arXiv:1611.02929) show space-filling-curve orders over
// the coarse-element forest give near-free repartitions on tree-based AMR,
// and Parma-style recursive inertial bisection covers the geometric middle
// ground. Each backend is a stateless `Repartitioner` singleton selected by
// `Kind`; every engine honours the pnr::exec bitwise-determinism contract
// (same assignment for any thread count) and reports the same
// core::RepartitionStats, so Session, the service, and bench_engines can
// swap engines per request without touching the surrounding pipeline.

#include <cstdint>
#include <span>
#include <string_view>

#include "core/pnr.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace pnr::engine {

/// Registered backends. Values are the svc wire encoding (u8) — append
/// only, never renumber. 255 on the wire means "server default".
enum class Kind : std::uint8_t {
  kMlkl = 0,        ///< paper's migration-aware multilevel KL (core::Pnr)
  kSfcMorton = 1,   ///< Morton-order curve split, remapped against Π^{t-1}
  kSfcHilbert = 2,  ///< Hilbert-order curve split, remapped against Π^{t-1}
  kRib = 3,         ///< parallel recursive inertial bisection on pnr::exec
};

inline constexpr int kNumKinds = 4;

/// Canonical token: "mlkl", "sfc-morton", "sfc-hilbert", "rib".
const char* kind_name(Kind k);

/// Parse a canonical token (as printed by kind_name). Returns false and
/// leaves `out` untouched on an unknown token.
bool parse_kind(std::string_view token, Kind& out);

/// True iff `v` is the wire encoding of a registered Kind.
inline bool valid_kind(std::uint8_t v) {
  return v < static_cast<std::uint8_t>(kNumKinds);
}

/// Everything a backend may consume for one repartition. The graph carries
/// the leaf-count vertex weights; `coords` (when present) are the n·dim
/// coarse-element centroids in vertex order. `previous` is Π^{t-1} carried
/// to the updated weights, or nullptr for the very first partition.
struct Input {
  const graph::Graph* graph = nullptr;
  std::span<const double> coords;  ///< n*dim, or empty when unavailable
  int dim = 0;                     ///< 0 (no coords), 2, or 3
  const part::Partition* previous = nullptr;
  part::PartId parts = 0;
  core::PnrOptions options;          ///< α/β and the MLKL knobs
  util::Rng* rng = nullptr;          ///< MLKL only; may be nullptr
};

/// One backend. Implementations are stateless and const — safe to share
/// across sessions and threads.
class Repartitioner {
 public:
  virtual ~Repartitioner() = default;
  virtual Kind kind() const = 0;
  /// True when the backend needs Input::coords (geometric engines).
  virtual bool needs_coords() const = 0;
  /// Compute Π̂^t. Fills `stats` (cut/migration/imbalance before and after)
  /// when non-null. Deterministic: a pure function of Input for any exec
  /// thread count.
  virtual part::Partition run(const Input& in,
                              core::RepartitionStats* stats) const = 0;
};

/// The registered singleton for `k`. Never returns null.
const Repartitioner& repartitioner(Kind k);

}  // namespace pnr::engine
