// End-to-end pipeline benchmark: the full adapt → repartition → migrate
// loop on the paper's workloads, instrumented with pnr::prof, emitting the
// machine-readable perf trajectory BENCH_pipeline.json (schema
// "pnr.bench_pipeline.v2", documented in docs/OBSERVABILITY.md). This file
// is the baseline every PR's performance is diffed against
// (scripts/bench_diff.py old.json new.json).
//
// Sessions run with deferred metrics (the service default): each step's
// cost is the partitioning work alone, and the final quality numbers are
// settled once at the end via Session::metrics(). v2 splits the cold
// first step (builds G) from the mean
// steady-state step (rounds 2+, where the persistent state is reused).
//
//   --quick            reduced sizes for CI (~1 s total)
//   --threads=N        exec pool width (default 1 = legacy serial behaviour)
//   --procs=8          processor count per workload
//   --out=<path>       output JSON (default BENCH_pipeline.json; run from
//                      the repo root so the trajectory lands there)
//   --levels/--steps   override the adaptation counts

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/json.hpp"
#include "util/prof.hpp"

using namespace pnr;

namespace {

struct WorkloadResult {
  std::string name;
  int steps = 0;
  std::int64_t elements_final = 0;
  graph::Weight cut_final = 0;
  double imbalance_final = 0.0;
  double migration_fraction_mean = 0.0;
  double migration_fraction_max = 0.0;
  double first_step_seconds = 0.0;   ///< round 1: cold caches
  double steady_step_seconds = 0.0;  ///< mean of rounds 2+
  double total_seconds = 0.0;
  std::int64_t peak_rss_bytes = 0;
  prof::Report profile;
};

/// Accumulates per-step migration fractions and finishes the result from
/// the profiler registry (which the caller reset before the run).
class Recorder {
 public:
  explicit Recorder(std::string name) {
    result_.name = std::move(name);
    prof::reset();
    prof::set_enabled(true);
  }

  void record(const pared::StepReport& report, double step_seconds,
              bool first) {
    result_.elements_final = report.elements;
    if (first) {  // no previous assignment, nothing migrated
      result_.first_step_seconds = step_seconds;
      return;
    }
    ++result_.steps;
    steady_seconds_sum_ += step_seconds;
    const double fraction =
        report.elements > 0 ? static_cast<double>(report.migrated) /
                                  static_cast<double>(report.elements)
                            : 0.0;
    fraction_sum_ += fraction;
    result_.migration_fraction_max =
        std::max(result_.migration_fraction_max, fraction);
  }

  /// Final quality from the settled (full) report of the last step.
  void record_final(const pared::StepReport& full) {
    result_.cut_final = full.cut_new;
    result_.imbalance_final = full.imbalance;
  }

  WorkloadResult finish() {
    prof::sample_peak_rss();
    result_.total_seconds = timer_.seconds();
    result_.peak_rss_bytes = prof::peak_rss_bytes();
    result_.migration_fraction_mean =
        result_.steps > 0 ? fraction_sum_ / result_.steps : 0.0;
    result_.steady_step_seconds =
        result_.steps > 0 ? steady_seconds_sum_ / result_.steps : 0.0;
    result_.profile = prof::snapshot();
    prof::set_enabled(false);
    return result_;
  }

 private:
  WorkloadResult result_;
  double fraction_sum_ = 0.0;
  double steady_seconds_sum_ = 0.0;
  util::Timer timer_;
};

WorkloadResult run_corner2d(part::PartId p, int grid, int levels,
                            std::uint64_t seed) {
  Recorder recorder("corner2d");
  pared::CornerSeries2D series(grid);
  pared::Session2D session(pared::Strategy::kPNR, p, seed);
  session.set_defer_metrics(true);
  {
    util::Timer t;
    const auto report = session.step(series.mutable_mesh());
    recorder.record(report, t.seconds(), true);
  }
  for (int l = 0; l < levels; ++l) {
    {
      PNR_PROF_SPAN("pipeline.adapt");
      series.advance();
    }
    PNR_PROF_SPAN("pipeline.repartition");
    util::Timer t;
    const auto report = session.step(series.mutable_mesh());
    recorder.record(report, t.seconds(), false);
  }
  recorder.record_final(session.metrics(series.mesh()));
  return recorder.finish();
}

WorkloadResult run_corner3d(part::PartId p, int grid, int levels,
                            std::uint64_t seed) {
  Recorder recorder("corner3d");
  pared::CornerSeries3D series(grid);
  pared::Session3D session(pared::Strategy::kPNR, p, seed);
  session.set_defer_metrics(true);
  {
    util::Timer t;
    const auto report = session.step(series.mutable_mesh());
    recorder.record(report, t.seconds(), true);
  }
  for (int l = 0; l < levels; ++l) {
    {
      PNR_PROF_SPAN("pipeline.adapt");
      series.advance();
    }
    PNR_PROF_SPAN("pipeline.repartition");
    util::Timer t;
    const auto report = session.step(series.mutable_mesh());
    recorder.record(report, t.seconds(), false);
  }
  recorder.record_final(session.metrics(series.mesh()));
  return recorder.finish();
}

WorkloadResult run_transient2d(part::PartId p, int grid, int steps,
                               std::uint64_t seed) {
  Recorder recorder("transient2d");
  pared::TransientOptions topts;
  topts.grid_n = grid;
  topts.steps = steps;
  pared::TransientRun run(topts);
  pared::Session2D session(pared::Strategy::kPNR, p, seed);
  session.set_defer_metrics(true);
  {
    util::Timer t;
    const auto report = session.step(run.mutable_mesh());
    recorder.record(report, t.seconds(), true);
  }
  while (!run.done()) {
    {
      PNR_PROF_SPAN("pipeline.adapt");
      run.advance();
    }
    PNR_PROF_SPAN("pipeline.repartition");
    util::Timer t;
    const auto report = session.step(run.mutable_mesh());
    recorder.record(report, t.seconds(), false);
  }
  recorder.record_final(session.metrics(run.mesh()));
  return recorder.finish();
}

util::Json to_json(const WorkloadResult& w, part::PartId procs) {
  util::Json doc = util::Json::object();
  doc["name"] = w.name;
  doc["strategy"] = "PNR";
  doc["procs"] = static_cast<std::int64_t>(procs);
  doc["steps"] = static_cast<std::int64_t>(w.steps);
  doc["elements_final"] = w.elements_final;
  doc["cut_final"] = static_cast<std::int64_t>(w.cut_final);
  doc["imbalance_final"] = w.imbalance_final;
  doc["migration_fraction_mean"] = w.migration_fraction_mean;
  doc["migration_fraction_max"] = w.migration_fraction_max;
  doc["first_step_seconds"] = w.first_step_seconds;
  doc["steady_step_seconds"] = w.steady_step_seconds;
  doc["total_seconds"] = w.total_seconds;
  doc["peak_rss_bytes"] = w.peak_rss_bytes;
  util::Json phases = util::Json::array();
  for (const prof::SpanRow& s : w.profile.spans) {
    util::Json row = util::Json::object();
    row["path"] = s.path;
    row["calls"] = s.calls;
    row["seconds"] = s.seconds;
    phases.push_back(std::move(row));
  }
  doc["phases"] = std::move(phases);
  util::Json counters = util::Json::object();
  for (const prof::CounterRow& c : w.profile.counters)
    counters[c.name] = c.value;
  doc["counters"] = std::move(counters);
  return doc;
}

void print_phase_table(const WorkloadResult& w) {
  std::printf("-- %s: %lld elements, cut %lld, migration %.2f%%/step, "
              "%.0f MiB peak, %.2f s (first step %.1f ms, steady %.1f ms)\n",
              w.name.c_str(), static_cast<long long>(w.elements_final),
              static_cast<long long>(w.cut_final),
              100.0 * w.migration_fraction_mean,
              static_cast<double>(w.peak_rss_bytes) / (1024.0 * 1024.0),
              w.total_seconds, w.first_step_seconds * 1e3,
              w.steady_step_seconds * 1e3);
  util::Table table({"phase", "calls", "total ms", "% of run"});
  for (const prof::SpanRow& s : w.profile.spans) {
    // Top two nesting levels keep the printed table readable; the JSON
    // carries the full tree.
    if (std::count(s.path.begin(), s.path.end(), '/') > 1) continue;
    table.row()
        .cell(s.path)
        .cell(s.calls)
        .cell(s.seconds * 1e3, 2)
        .cell(w.total_seconds > 0.0 ? 100.0 * s.seconds / w.total_seconds
                                    : 0.0,
              1);
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick");
  const auto p = static_cast<part::PartId>(cli.get_int("procs", 8));
  const int grid2d = cli.get_int("grid", quick ? 32 : 40);
  const int levels2d = cli.get_int("levels", quick ? 3 : 6);
  const int steps = cli.get_int("steps", quick ? 5 : 15);
  const std::uint64_t seed = 1;
  const std::string out = cli.get("out", "BENCH_pipeline.json");
  const int threads = bench::apply_threads_flag(cli);

  bench::banner("Pipeline e2e",
                "adapt -> repartition -> migrate on the paper's workloads; "
                "writes the perf trajectory BENCH_pipeline.json");

  std::vector<WorkloadResult> results;
  results.push_back(run_corner2d(p, grid2d, levels2d, seed));
  results.push_back(run_transient2d(p, grid2d, steps, seed));
  if (!quick)
    results.push_back(run_corner3d(p, cli.get_int("grid3d", 8),
                                   cli.get_int("levels3d", 3), seed));

  util::Json doc = util::Json::object();
  doc["schema"] = "pnr.bench_pipeline.v2";
  doc["binary"] = "bench_pipeline_e2e";
  doc["mode"] = quick ? "quick" : "default";
  doc["procs"] = static_cast<std::int64_t>(p);
  doc["threads"] = static_cast<std::int64_t>(threads);
  util::Json workloads = util::Json::array();
  double total = 0.0;
  for (const WorkloadResult& w : results) {
    print_phase_table(w);
    workloads.push_back(to_json(w, p));
    total += w.total_seconds;
  }
  doc["workloads"] = std::move(workloads);
  doc["total_seconds"] = total;

  std::ofstream file(out);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  file << doc.dump(2) << "\n";
  std::printf("wrote %s (%d workloads, %.2f s total)\n", out.c_str(),
              static_cast<int>(results.size()), total);
  return 0;
}
