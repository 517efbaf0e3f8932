#pragma once
// Parallel recursive inertial bisection (Parma-style RIB) behind the engine
// interface: part::inertial_partition splits the graph into p parts by the
// principal axes of the subdomains' weighted inertia tensors (level-
// synchronous on pnr::exec, bitwise identical for any thread count), then
// the parts are relabelled against Π^{t-1} with the Hungarian remap.

#include "engine/engine.hpp"

namespace pnr::engine {

class RibRepartitioner final : public Repartitioner {
 public:
  Kind kind() const override { return Kind::kRib; }
  bool needs_coords() const override { return true; }
  part::Partition run(const Input& in,
                      core::RepartitionStats* stats) const override;
};

}  // namespace pnr::engine
