// pnrbench: one adaptation-round workload per process, so peak RSS belongs
// to that workload. Prints provenance and run details on "#"-prefixed lines,
// then, as the last line, the result object
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace=0) or the per-layer metrics
// (--trace=1). perfbench/run.py builds this binary and drives it.
//
//   --workload=NAME   plan_transient2d | svc_sfc_sessions | fed_transient3d
//   --seed=N          input seed (the same seed gives the same inputs)
//   --seconds=S       measured time; whole passes run until it has elapsed
//   --trace=0|1       traced run: spans + pnr::prof, per-layer metrics
//   --trace-out=PATH  span file of the traced run (JSON lines)
//   --inject-unknown-every=N  svc test hook: a request for a missing
//                     session every N rounds
//   --commit=STR      provenance stamp supplied by run.py

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/pool.hpp"
#include "util/cli.hpp"
#include "util/prof.hpp"

#ifndef PNRBENCH_BUILD_TYPE
#define PNRBENCH_BUILD_TYPE "unknown"
#endif

namespace pnrbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Sum of the inclusive time of every pnr::prof span whose innermost name is
/// `leaf`, in ms.
double span_ms(const pnr::prof::Report& report, const std::string& leaf) {
  double seconds = 0.0;
  for (const auto& row : report.spans) {
    const auto slash = row.path.rfind('/');
    const std::string name =
        slash == std::string::npos ? row.path : row.path.substr(slash + 1);
    if (name == leaf) seconds += row.seconds;
  }
  return seconds * 1e3;
}

double counter(const pnr::prof::Report& report, const std::string& name) {
  for (const auto& row : report.counters)
    if (row.name == name) return static_cast<double>(row.value);
  for (const auto& row : report.gauges)
    if (row.name == name) return static_cast<double>(row.value);
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double self_ms(const std::map<std::string, Tracer::Aggregate>& spans,
               std::initializer_list<const char*> names) {
  double ns = 0.0;
  for (const char* name : names) {
    const auto it = spans.find(name);
    if (it != spans.end()) ns += static_cast<double>(it->second.self_ns);
  }
  return ns / 1e6;
}

/// Peak resident set of this process image in MB. VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across execve, so it would report the launching
/// Python process's footprint whenever that was larger.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f))
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric> end_to_end(const Result& r) {
  const double ok_frac =
      r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                      : 0.0;
  return {
      {"setup_s", quantile(r.setup_s, 0.5), "s"},
      // Medians over passes: a burst of host noise that spoils a few
      // passes moves none of them.
      {"round_ms_p50", quantile(r.pass_p50, 0.5), "ms"},
      {"round_ms_p90", quantile(r.pass_p90, 0.5), "ms"},
      {"rounds_per_s", quantile(r.pass_rate, 0.5), "1/s"},
      {"cut_mean", r.cut_mean, "count"},
      {"migrated_frac_mean", r.migrated_frac_mean, "fraction"},
      {"imbalance_p99", r.imbalance_p99, "fraction"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_frac", ok_frac, "fraction"},
  };
}

std::vector<Metric> per_layer(const Result& r, const Tracer& tracer) {
  const pnr::prof::Report prof = pnr::prof::snapshot();
  const auto spans = tracer.aggregates();
  const double rounds = static_cast<double>(r.traced_rounds);
  const auto per_round = [&](double v) { return ratio(v, rounds); };
  const auto layer = [&](const char* name) {
    const auto it = r.layer.find(name);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  const double trace_p50 = quantile(r.traced_round_ms, 0.5);
  return {
      {"pared.imbalance_max", r.imbalance_max, "fraction"},
      {"mesh.adapt_ms_p50", layer("mesh.adapt_ms_p50"), "ms"},
      {"pared.step_ms_p50", layer("pared.step_ms_p50"), "ms"},
      {"pared.metrics_ms_p50", layer("pared.metrics_ms_p50"), "ms"},
      {"core.repartition_ms", per_round(span_ms(prof, "pnr.repartition")),
       "ms/round"},
      {"core.uncoarsen_refine_ms",
       per_round(span_ms(prof, "pnr.uncoarsen_refine")), "ms/round"},
      {"core.cache_hits", per_round(counter(prof, "pnr.cache.hits")),
       "count/round"},
      {"partition.kl_refine_ms", per_round(span_ms(prof, "kl.refine")),
       "ms/round"},
      {"partition.rebalance_ms", per_round(span_ms(prof, "rebalance.greedy")),
       "ms/round"},
      {"partition.kl_moves", per_round(counter(prof, "kl.moves")),
       "count/round"},
      {"partition.kl_queue_pushes", per_round(counter(prof, "kl.queue_pushes")),
       "count/round"},
      {"partition.kl_moves_per_push",
       ratio(counter(prof, "kl.moves"), counter(prof, "kl.queue_pushes")),
       "ratio"},
      {"partition.rebalance_moves", per_round(counter(prof, "rebalance.moves")),
       "count/round"},
      {"partition.rebalance_sweeps",
       per_round(counter(prof, "rebalance.sweeps")), "count/round"},
      {"graph.coarsen_edges_scanned",
       per_round(counter(prof, "coarsen.edges_scanned")), "count/round"},
      {"mesh.dual_delta_vertices",
       per_round(counter(prof, "session.dual_delta_vertices")), "count/round"},
      {"engine.sfc_ms", per_round(span_ms(prof, "engine.sfc")), "ms/round"},
      {"engine.remap_ms", per_round(span_ms(prof, "engine.remap")),
       "ms/round"},
      {"svc.io_busy_ms_per_round", layer("svc.io_busy_ms_per_round"), "ms"},
      {"svc.io_idle_ms_per_round", layer("svc.io_idle_ms_per_round"), "ms"},
      {"svc.shard_busy_ms_per_round",
       per_round(counter(prof, "svc.shard.worker_busy_ns") / 1e6), "ms"},
      {"svc.drain_tasks_per_request",
       ratio(counter(prof, "svc.shard.drain_tasks"),
             counter(prof, "svc.requests")),
       "ratio"},
      {"svc.wakeups_per_round", per_round(counter(prof, "svc.shard.wakeups")),
       "count"},
      {"svc.queue_depth_max", counter(prof, "svc.shard.queue_depth"), "count"},
      {"svc.bytes_out_per_round", per_round(counter(prof, "svc.bytes_out")),
       "B"},
      {"svc.errors", counter(prof, "svc.errors"), "count"},
      {"exec.detached_tasks", per_round(counter(prof, "exec.detached_tasks")),
       "count/round"},
      {"fed.shard_busy_ms_per_round", layer("fed.shard_busy_ms_per_round"),
       "ms"},
      {"fed.coord_self_ms_per_round", layer("fed.coord_self_ms_per_round"),
       "ms"},
      {"fed.payload_kb_per_round", layer("fed.payload_kb_per_round"), "KiB"},
      {"fed.elements_moved_per_round", layer("fed.elements_moved_per_round"),
       "count"},
      {"fed.attach_ms", layer("fed.attach_ms"), "ms"},
      {"check.audits", per_round(counter(prof, "check.audits")),
       "count/round"},
      {"self.bench_ms_per_round", per_round(self_ms(spans, {"round"})), "ms"},
      {"self.mesh_ms_per_round", per_round(self_ms(spans, {"mesh.adapt"})),
       "ms"},
      {"self.pared_ms_per_round",
       per_round(self_ms(spans, {"pared.step", "pared.metrics"})), "ms"},
      {"self.svc_client_ms_per_round",
       per_round(self_ms(spans, {"svc.send", "svc.recv"})), "ms"},
      {"self.svc_io_ms_per_round", per_round(self_ms(spans, {"svc.poll"})),
       "ms"},
      {"self.fed_coord_ms_per_round", per_round(self_ms(spans, {"fed.round"})),
       "ms"},
      {"self.svc_daemon_ms_per_round",
       per_round(self_ms(spans, {"svc.pump"})), "ms"},
      {"trace.round_ms_p50", trace_p50, "ms"},
      {"trace.overhead_ms", trace_p50 - quantile(r.round_ms, 0.5), "ms"},
  };
}

void print_metrics(const Result& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace pnrbench

int main(int argc, char** argv) {
  using namespace pnrbench;
  const pnr::util::Cli cli(argc, argv);
  Options options;
  options.workload = cli.get("workload", "");
  options.seed = std::stoull(cli.get("seed", "1"));
  options.seconds = cli.get_double("seconds", 10.0);
  options.trace = cli.get_int("trace", 0) != 0;
  options.inject_unknown_every = cli.get_int("inject-unknown-every", 0);
  options.trace_out = cli.get("trace-out", "");

  Result (*run)(const Options&, Tracer&) = nullptr;
  if (options.workload == "plan_transient2d") run = run_plan_transient2d;
  if (options.workload == "svc_sfc_sessions") run = run_svc_sfc_sessions;
  if (options.workload == "fed_transient3d") run = run_fed_transient3d;
  if (!run || options.seconds <= 0.0) {
    std::fprintf(stderr, "usage: pnrbench --workload=NAME --seed=N "
                         "--seconds=S --trace=0|1\n");
    return 2;
  }

  // Every workload is specified single-threaded outside the svc shards;
  // pin the process-wide kernel pool so PNR_THREADS cannot change that.
  pnr::exec::set_default_threads(1);
  pnr::prof::reset();

  std::printf("# provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"commit\": \"%s\"}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              __VERSION__, PNRBENCH_BUILD_TYPE,
              cli.get("commit", "unknown").c_str());

  Tracer tracer;
  Result result;
  try {
    result = run(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnrbench: %s aborted: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  std::printf("# run {\"passes\": %d, \"rounds_per_pass\": %d, "
              "\"rounds\": %lld, \"samples\": %zu, "
              "\"traced_samples\": %zu, \"fingerprint\": \"%016llx\", "
              "\"spans_dropped\": %lld}\n",
              result.passes, result.rounds_per_pass,
              static_cast<long long>(result.rounds),
              result.round_ms.size(), result.traced_round_ms.size(),
              static_cast<unsigned long long>(result.fingerprint),
              static_cast<long long>(tracer.dropped()));
  for (const std::string& why : result.errors)
    std::printf("# check failed: %s\n", why.c_str());

  if (options.trace && !options.trace_out.empty() &&
      !tracer.write(options.trace_out)) {
    std::fprintf(stderr, "pnrbench: cannot write %s\n",
                 options.trace_out.c_str());
    return 1;
  }
  print_metrics(result, options.trace ? per_layer(result, tracer)
                                      : end_to_end(result));
  return 0;
}
