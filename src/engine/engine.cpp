#include "engine/engine.hpp"

#include "engine/rib.hpp"
#include "engine/sfc.hpp"
#include "util/assert.hpp"
#include "util/prof.hpp"

namespace pnr::engine {

namespace {

// The paper's migration-aware multilevel KL, wrapped unchanged: the
// backend builds a core::Pnr per call (the object is a thin options
// holder) and forwards to initial_partition / repartition, so results are
// bit-identical to driving core::Pnr directly.
class MlklRepartitioner final : public Repartitioner {
 public:
  Kind kind() const override { return Kind::kMlkl; }
  bool needs_coords() const override { return false; }
  part::Partition run(const Input& in,
                      core::RepartitionStats* stats) const override {
    PNR_PROF_SPAN("engine.mlkl");
    prof::count("engine.runs");
    PNR_REQUIRE(in.rng != nullptr);
    const core::Pnr pnr(in.parts, in.options);
    if (in.previous == nullptr) {
      part::Partition pi = pnr.initial_partition(*in.graph, *in.rng);
      if (stats != nullptr) {
        *stats = {};
        stats->cut_after = part::cut_size(*in.graph, pi);
        stats->imbalance_after = part::imbalance(*in.graph, pi);
      }
      return pi;
    }
    return pnr.repartition(*in.graph, *in.previous, *in.rng, stats);
  }
};

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kMlkl: return "mlkl";
    case Kind::kSfcMorton: return "sfc-morton";
    case Kind::kSfcHilbert: return "sfc-hilbert";
    case Kind::kRib: return "rib";
  }
  return "?";
}

bool parse_kind(std::string_view token, Kind& out) {
  for (int i = 0; i < kNumKinds; ++i) {
    const auto k = static_cast<Kind>(i);
    if (token == kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const Repartitioner& repartitioner(Kind k) {
  static const MlklRepartitioner mlkl;
  static const SfcRepartitioner sfc_morton{/*hilbert=*/false};
  static const SfcRepartitioner sfc_hilbert{/*hilbert=*/true};
  static const RibRepartitioner rib;
  switch (k) {
    case Kind::kMlkl: return mlkl;
    case Kind::kSfcMorton: return sfc_morton;
    case Kind::kSfcHilbert: return sfc_hilbert;
    case Kind::kRib: return rib;
  }
  PNR_REQUIRE(false && "unregistered engine kind");
  return mlkl;
}

}  // namespace pnr::engine
