// bench_engines: the repartitioner-engine matrix. MLKL, SFC-Morton,
// SFC-Hilbert and RIB each replay the same transient adaptation sequences
// (the Figure 7/8 workloads) on the persistent coarse dual graph, carrying
// their own partition across steps, and the bench records planning latency,
// cut, migration and imbalance per engine plus a cross-thread determinism
// fingerprint. Emits BENCH_engines.json (schema "pnr.bench_engines.v1",
// documented in docs/OBSERVABILITY.md); scripts/engine_gate.py grades the
// result against the MLKL baseline.
//
// Exit code is nonzero ONLY on a determinism violation: latencies and the
// SFC-vs-MLKL speedup depend on the host, fingerprints do not.
//
//   --quick               reduced sizes for CI
//   --threads=1,2,4,8     exec-pool widths to sweep
//   --reps=3              replays per cell (minimum planning time reported)
//   --parts=8             target partition count
//   --out=<path>          output JSON (default BENCH_engines.json)

#include <bit>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "engine/engine.hpp"
#include "mesh/dual.hpp"
#include "partition/partition.hpp"
#include "util/json.hpp"

using namespace pnr;

namespace {

/// FNV-1a over the per-step assignments; detects any cross-thread
/// divergence in an engine's whole trajectory, not just the final step.
class Fingerprint {
 public:
  void mix(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (x >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void mix(std::int32_t x) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)));
  }
  template <typename T>
  void mix_all(const std::vector<T>& v) {
    mix(static_cast<std::uint64_t>(v.size()));
    for (const T& x : v) mix(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One full transient replay under one engine at the current pool width.
struct Replay {
  double planning_seconds = 0.0;  ///< summed over the steps
  std::uint64_t fingerprint = 0;
  double cut_mean = 0.0;
  std::int64_t migrate_total = 0;
  double imbalance_max = 0.0;
  int steps = 0;
  std::int64_t coarse_vertices = 0;
};

template <typename Run, typename Opts>
Replay replay(engine::Kind kind, const Opts& opts, part::PartId parts,
              std::uint64_t seed) {
  Replay r;
  Run run(opts);
  util::Rng rng(seed);
  const auto& eng = engine::repartitioner(kind);
  // M^0 never changes: centroids once per replay, like a session would.
  const std::vector<double> coords = mesh::coarse_centroids(run.mesh());
  const int dim = static_cast<int>(
      coords.size() / static_cast<std::size_t>(
                          run.mesh().num_initial_elements()));

  part::Partition prev;
  bool have_prev = false;
  Fingerprint fp;
  double cut_sum = 0.0;
  while (!run.done()) {
    run.advance();
    const graph::Graph g = mesh::nested_dual_graph(run.mesh());
    engine::Input in;
    in.graph = &g;
    in.coords = coords;
    in.dim = dim;
    in.previous = have_prev ? &prev : nullptr;
    in.parts = parts;
    in.rng = &rng;
    core::RepartitionStats stats;
    util::Timer timer;
    part::Partition pi = eng.run(in, &stats);
    r.planning_seconds += timer.seconds();
    fp.mix_all(pi.assign);
    cut_sum += static_cast<double>(stats.cut_after);
    r.migrate_total += stats.migrate;
    r.imbalance_max = std::max(r.imbalance_max, stats.imbalance_after);
    r.coarse_vertices = g.num_vertices();
    prev = std::move(pi);
    have_prev = true;
    ++r.steps;
  }
  r.cut_mean = r.steps > 0 ? cut_sum / r.steps : 0.0;
  r.fingerprint = fp.value();
  return r;
}

struct Cell {
  int threads = 0;
  double seconds = 0.0;  ///< best total planning time over the reps
};

struct EngineResult {
  std::string engine;
  std::vector<Cell> cells;
  std::uint64_t fingerprint = 0;
  bool deterministic = true;
  double cut_mean = 0.0;
  std::int64_t migrate_total = 0;
  double imbalance_max = 0.0;
  int steps = 0;
  std::int64_t coarse_vertices = 0;
};

template <typename Run, typename Opts>
EngineResult sweep_engine(engine::Kind kind, const Opts& opts,
                          part::PartId parts, const std::vector<int>& widths,
                          int reps, std::uint64_t seed) {
  EngineResult er;
  er.engine = engine::kind_name(kind);
  for (const int t : widths) {
    exec::set_default_threads(t);
    double best = 0.0;
    Replay last;
    for (int rep = 0; rep < reps; ++rep) {
      last = replay<Run>(kind, opts, parts, seed);
      if (rep == 0 || last.planning_seconds < best)
        best = last.planning_seconds;
    }
    er.cells.push_back({t, best});
    if (er.cells.size() == 1) {
      er.fingerprint = last.fingerprint;
      er.cut_mean = last.cut_mean;
      er.migrate_total = last.migrate_total;
      er.imbalance_max = last.imbalance_max;
      er.steps = last.steps;
      er.coarse_vertices = last.coarse_vertices;
    } else if (last.fingerprint != er.fingerprint) {
      er.deterministic = false;
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s at %d threads: fingerprint "
                   "%016llx != %016llx at %d threads\n",
                   er.engine.c_str(), t,
                   static_cast<unsigned long long>(last.fingerprint),
                   static_cast<unsigned long long>(er.fingerprint),
                   er.cells.front().threads);
    }
  }
  exec::set_default_threads(1);
  return er;
}

constexpr engine::Kind kAllKinds[] = {
    engine::Kind::kMlkl, engine::Kind::kSfcMorton, engine::Kind::kSfcHilbert,
    engine::Kind::kRib};

util::Json to_json(const std::string& workload, part::PartId parts,
                   const std::vector<EngineResult>& engines) {
  util::Json doc = util::Json::object();
  doc["name"] = workload;
  doc["parts"] = static_cast<std::int64_t>(parts);
  util::Json rows = util::Json::array();
  for (const EngineResult& e : engines) {
    util::Json row = util::Json::object();
    row["engine"] = e.engine;
    row["steps"] = static_cast<std::int64_t>(e.steps);
    row["coarse_vertices"] = e.coarse_vertices;
    row["cut_mean"] = e.cut_mean;
    row["migrate_total"] = e.migrate_total;
    row["imbalance_max"] = e.imbalance_max;
    row["deterministic"] = e.deterministic;
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(e.fingerprint));
    row["fingerprint"] = std::string(fp);
    util::Json cells = util::Json::array();
    for (const Cell& c : e.cells) {
      util::Json cell = util::Json::object();
      cell["threads"] = static_cast<std::int64_t>(c.threads);
      cell["planning_seconds"] = c.seconds;
      cells.push_back(std::move(cell));
    }
    row["cells"] = std::move(cells);
    rows.push_back(std::move(row));
  }
  doc["engines"] = std::move(rows);
  return doc;
}

void print_table(const std::string& workload,
                 const std::vector<EngineResult>& engines) {
  std::printf("-- %s\n", workload.c_str());
  double mlkl_t1 = 0.0;
  for (const EngineResult& e : engines)
    if (e.engine == "mlkl" && !e.cells.empty()) mlkl_t1 = e.cells[0].seconds;
  util::Table table({"engine", "coarse n", "steps", "plan ms", "vs mlkl",
                     "cut mean", "migrated", "imb max", "deterministic"});
  for (const EngineResult& e : engines) {
    const double t1 = e.cells.empty() ? 0.0 : e.cells[0].seconds;
    table.row()
        .cell(e.engine)
        .cell(static_cast<long long>(e.coarse_vertices))
        .cell(static_cast<long long>(e.steps))
        .cell(t1 * 1e3, 2)
        .cell(t1 > 0.0 ? mlkl_t1 / t1 : 0.0, 1)
        .cell(e.cut_mean, 1)
        .cell(static_cast<long long>(e.migrate_total))
        .cell(e.imbalance_max, 3)
        .cell(e.deterministic ? "yes" : "NO");
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick");
  const auto widths = cli.get_int_list("threads", {1, 2, 4, 8});
  const int reps = cli.get_int("reps", quick ? 2 : 3);
  const auto parts = static_cast<part::PartId>(cli.get_int("parts", 8));
  const std::string out = cli.get("out", "BENCH_engines.json");

  bench::banner("engine matrix",
                "MLKL / SFC-Morton / SFC-Hilbert / RIB over the transient "
                "workloads; fails only on a cross-thread determinism "
                "violation");

  util::Json doc = util::Json::object();
  doc["schema"] = "pnr.bench_engines.v1";
  doc["binary"] = "bench_engines";
  doc["mode"] = quick ? "quick" : "default";
  doc["parts"] = static_cast<std::int64_t>(parts);
  util::Json width_list = util::Json::array();
  for (const int t : widths) width_list.push_back(static_cast<std::int64_t>(t));
  doc["threads"] = std::move(width_list);
  util::Json workloads = util::Json::array();

  bool deterministic = true;
  {
    pared::TransientOptions topts;
    topts.grid_n = quick ? 20 : 32;
    topts.steps = quick ? 6 : 12;
    std::vector<EngineResult> engines;
    for (const engine::Kind kind : kAllKinds)
      engines.push_back(sweep_engine<pared::TransientRun>(
          kind, topts, parts, widths, reps, /*seed=*/7));
    print_table("transient2d", engines);
    workloads.push_back(to_json("transient2d", parts, engines));
    for (const auto& e : engines) deterministic &= e.deterministic;
  }
  {
    auto topts = pared::TransientRun3D::default_options();
    topts.grid_n = quick ? 5 : 7;
    topts.steps = quick ? 4 : 8;
    std::vector<EngineResult> engines;
    for (const engine::Kind kind : kAllKinds)
      engines.push_back(sweep_engine<pared::TransientRun3D>(
          kind, topts, parts, widths, reps, /*seed=*/11));
    print_table("transient3d", engines);
    workloads.push_back(to_json("transient3d", parts, engines));
    for (const auto& e : engines) deterministic &= e.deterministic;
  }

  doc["workloads"] = std::move(workloads);
  doc["deterministic"] = deterministic;

  std::ofstream file(out);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  file << doc.dump(2) << "\n";
  std::printf("wrote %s (deterministic: %s)\n", out.c_str(),
              deterministic ? "yes" : "NO");
  return deterministic ? 0 : 2;
}
