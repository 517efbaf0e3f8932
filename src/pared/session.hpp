#pragma once
// Repartitioning session: owns the evolving assignment for one strategy and
// produces, after every mesh adaptation, the measurements the paper's tables
// and figures report. The previous assignment is carried across adaptation
// by the meshes' inherited element tags (children take their parent's
// processor — exactly how PARED migrates whole refinement trees).
//
// Strategies:
//   kRSB / kMlkl         partition the *fine* dual graph from scratch
//                        (Section 7's standard heuristics);
//   kRsbRemap/kMlklRemap same, then apply the optimal Biswas–Oliker subset
//                        relabeling Π̃ before adopting;
//   kPNR                 Parallel Nested Repartitioning on the coarse graph;
//   kDiffusion           Hu–Blake flow + boundary migration on the fine
//                        dual graph (Walshaw/Schloegel-style baseline).

#include <cstdint>
#include <optional>
#include <string>

#include "core/pnr.hpp"
#include "engine/engine.hpp"
#include "mesh/dual.hpp"
#include "mesh/metrics.hpp"
#include "partition/diffusion.hpp"
#include "partition/mldiffusion.hpp"
#include "partition/mlkl.hpp"
#include "partition/remap.hpp"
#include "partition/rsb.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace pnr::pared {

enum class Strategy {
  kRSB,
  kRsbRemap,
  kMlkl,
  kMlklRemap,
  kPNR,
  kDiffusion,
  kMlDiffusion,  ///< multilevel diffusion on the fine graph (ref. [7] style)
};

const char* strategy_name(Strategy s);
std::optional<Strategy> parse_strategy(const std::string& name);

/// One adaptation step's report (all quantities in fine elements/vertices).
struct StepReport {
  std::int64_t elements = 0;        ///< |M^t| (leaves)
  graph::Weight cut_prev = 0;       ///< C_cut of the carried assignment
  graph::Weight cut_new = 0;        ///< C_cut(Π̂^t) on the fine dual graph
  std::int64_t shared_vertices = 0; ///< the paper's quality measure
  std::int64_t migrated = 0;        ///< C_migrate(Π^t, Π̂^t)
  std::int64_t migrated_remapped = 0;  ///< C_migrate(Π^t, Π̃^t)
  double imbalance = 0.0;           ///< ε of the adopted partition
};

template <typename Mesh>
class Session {
 public:
  Session(Strategy strategy, part::PartId p, std::uint64_t seed,
          core::PnrOptions pnr_options = {},
          engine::Kind engine = engine::Kind::kMlkl)
      : strategy_(strategy),
        p_(p),
        rng_(seed),
        pnr_options_(pnr_options),
        engine_(engine) {
    PNR_REQUIRE(p >= 1);
  }

  Strategy strategy() const { return strategy_; }
  part::PartId num_parts() const { return p_; }
  /// Backend used by the kPNR strategy (other strategies ignore it).
  engine::Kind engine() const { return engine_; }

  /// Partition the mesh's current leaves, adopt the result (writing it into
  /// the element tags for the next step) and report the step's measures.
  StepReport step(Mesh& mesh);

  /// Defer the metrics tail of step(): with deferral on, step() fills only
  /// `elements` and `migrated` (plus whatever the strategy computes anyway)
  /// and leaves cut/imbalance/shared-vertices at zero until metrics() asks
  /// for them. The fine-graph strategies compute the tail on the fine dual
  /// graph. PNR assigns every tree whole, so it reads the tail off the
  /// persistent coarse graph, eager or deferred, and never builds the fine
  /// dual; only a mesh whose trees carry mixed tags (tagged by another
  /// strategy) falls back to the fine dual for that step.
  void set_defer_metrics(bool defer) { defer_metrics_ = defer; }
  bool defer_metrics() const { return defer_metrics_; }

  /// The most recent step's full report, computing any deferred metrics on
  /// demand (and caching them). The mesh must not have been adapted since
  /// that step — the deferred quantities would be unrecoverable.
  StepReport metrics(const Mesh& mesh);

  /// True when metrics() is callable: at least one step has run and the
  /// mesh has not been adapted since.
  bool metrics_current(const Mesh& mesh) const {
    return have_last_ && mesh.adapt_version() == last_adapt_version_;
  }

  /// Federation hook: swap in a coarse graph assembled from shard reports
  /// (the coordinator's federated gather). The graph must equal the
  /// session's own refresh array-for-array; on any difference it is
  /// rejected and the session state is untouched, so an adopted graph can
  /// never perturb the single-process trajectory — that equality is
  /// exactly what the federation's bitwise-equivalence gate proves.
  bool adopt_federated_graph(Mesh& mesh, graph::Graph g);

  /// PNR's persistent assignment on the coarse vertices (empty before the
  /// first kPNR step).
  const std::vector<part::PartId>& coarse_assignment() const {
    return coarse_assign_;
  }

 private:
  /// Bring the persistent coarse dual graph up to date: apply the mesh's
  /// weight delta in place, or rebuild from scratch on the first step /
  /// after a drain-epoch gap.
  void refresh_coarse_graph(Mesh& mesh);

  /// Fill last_report_'s deferred fields for the adopted tags: off the
  /// coarse graph when last_coarse_, else on `dual` (built if null).
  void settle_metrics(const Mesh& mesh, const mesh::FineDual* dual);

  /// The deferred fields (and PNR's `migrated`) recomputed on the fine dual
  /// graph from the leaf tags, with `carried` the fine Π^{t-1} in dense leaf
  /// order.
  void fine_metrics(const Mesh& mesh, const mesh::FineDual& dual,
                    const std::vector<part::PartId>& carried,
                    StepReport& report) const;

  Strategy strategy_;
  part::PartId p_;
  util::Rng rng_;
  core::PnrOptions pnr_options_;
  engine::Kind engine_ = engine::Kind::kMlkl;
  bool first_ = true;
  bool defer_metrics_ = false;
  /// PNR keeps its assignment on the (persistent) coarse vertices.
  std::vector<part::PartId> coarse_assign_;
  /// Persistent repartition state (PNR only): G built once, weight-patched
  /// per round.
  graph::Graph coarse_graph_;
  bool coarse_graph_valid_ = false;
  std::uint64_t dual_epoch_ = 0;
  /// Initial-element centroids for the geometric engines; M^0 never
  /// changes, so they are computed once on first use.
  std::vector<double> coarse_coords_;
  bool coarse_coords_valid_ = false;
  /// Deferred-metrics state for metrics().
  StepReport last_report_;
  /// Π^{t-1}: per root of M^0 when last_coarse_, else per leaf.
  std::vector<part::PartId> last_carried_;
  /// The last step's metrics come off coarse_graph_ (PNR, unless some
  /// tree's leaves carried mixed tags).
  bool last_coarse_ = false;
  /// Level-2 builds only: the fine Π^{t-1}, for the coarse-path audit.
  std::vector<part::PartId> audit_carried_;
  bool last_had_carried_ = false;
  bool last_deferred_ = false;
  bool have_last_ = false;
  std::uint64_t last_adapt_version_ = 0;
};

using Session2D = Session<mesh::TriMesh>;
using Session3D = Session<mesh::TetMesh>;

}  // namespace pnr::pared
