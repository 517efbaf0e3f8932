#include "partition/partitioner.hpp"

#include "partition/inertial.hpp"
#include "partition/mlkl.hpp"
#include "partition/rcb.hpp"
#include "partition/rsb.hpp"
#include "util/assert.hpp"

namespace pnr::part {

std::optional<Method> parse_method(const std::string& name) {
  // Accepts the method_name display names too, so the parse/name pair
  // round-trips for every enum value.
  if (name == "mlkl" || name == "multilevel-kl" || name == "Multilevel-KL")
    return Method::kMultilevelKL;
  if (name == "rsb" || name == "RSB") return Method::kRSB;
  if (name == "inertial" || name == "geometric" || name == "Inertial")
    return Method::kInertial;
  if (name == "rcb" || name == "coordinate" || name == "RCB")
    return Method::kRCB;
  if (name == "random" || name == "Random") return Method::kRandom;
  return std::nullopt;
}

const char* method_name(Method m) {
  switch (m) {
    case Method::kMultilevelKL: return "Multilevel-KL";
    case Method::kRSB: return "RSB";
    case Method::kInertial: return "Inertial";
    case Method::kRCB: return "RCB";
    case Method::kRandom: return "Random";
  }
  return "?";
}

Partition make_partition(const Graph& g, PartId p, util::Rng& rng,
                         const PartitionerOptions& options) {
  PNR_REQUIRE(p >= 1);
  switch (options.method) {
    case Method::kMultilevelKL: {
      MlklOptions mo;
      mo.imbalance_tol = options.imbalance_tol;
      return multilevel_kl(g, p, rng, mo);
    }
    case Method::kRSB: {
      RsbOptions ro;
      ro.imbalance_tol = options.imbalance_tol;
      return rsb(g, p, rng, ro);
    }
    case Method::kInertial:
      PNR_REQUIRE_MSG(!options.coords.empty(),
                      "inertial partitioning needs coordinates");
      return inertial_partition(g, options.coords, options.dim, p);
    case Method::kRCB:
      PNR_REQUIRE_MSG(!options.coords.empty(),
                      "coordinate bisection needs coordinates");
      return rcb_partition(g, options.coords, options.dim, p);
    case Method::kRandom: {
      Partition pi(p, std::vector<PartId>(
                          static_cast<std::size_t>(g.num_vertices())));
      for (auto& a : pi.assign)
        a = static_cast<PartId>(rng.next_below(static_cast<std::uint64_t>(p)));
      return pi;
    }
  }
  PNR_REQUIRE(false);
  return {};
}

}  // namespace pnr::part
