#pragma once
// Facade selecting among the partitioning algorithms by name, for callers
// that pick the method at run time (examples/partition_tool.cpp).

#include <optional>
#include <span>
#include <string>

#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace pnr::part {

enum class Method {
  kMultilevelKL,
  kRSB,
  kInertial,  ///< requires coordinates
  kRCB,       ///< requires coordinates
  kRandom,    ///< stress-test baseline
};

struct PartitionerOptions {
  Method method = Method::kMultilevelKL;
  double imbalance_tol = 0.03;
  /// Row-major n×dim coordinates, required by Method::kInertial.
  std::span<const double> coords;
  int dim = 2;
};

/// Parse "mlkl" / "rsb" / "inertial" / "rcb" / "random" (plus the aliases
/// "multilevel-kl", "geometric", "coordinate" and the display names
/// method_name prints, so parse_method(method_name(m)) == m for every
/// Method); nullopt on unknown.
std::optional<Method> parse_method(const std::string& name);
const char* method_name(Method m);

Partition make_partition(const Graph& g, PartId p, util::Rng& rng,
                         const PartitionerOptions& options = {});

}  // namespace pnr::part
