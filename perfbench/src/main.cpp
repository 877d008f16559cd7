//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and prints, as its last line, one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// Untraced runs (--trace 0) report the end-to-end metrics, traced runs
/// (--trace 1) the per-layer ones; both lists must match BENCHMARK.json.
/// Earlier lines carry the provenance of the build and host, every
/// metric by name with its sample count, and the failure ratio with its
/// base. Usually invoked through perfbench/run.py, which builds it.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include "support/ThreadPool.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics, reported by every workload with tracing off.
constexpr MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"call_s", "s"},
    {"round_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced run. Every workload reports all of
/// them; a layer the workload does not exercise reads 0.
constexpr MetricDef PerLayer[] = {
    {"networks.build_s", "s"},
    {"perm.rel_label_ns", "ns"},
    {"perm.normalize_s", "s"},
    {"comm.trace_gen_s", "s"},
    {"comm.route_setup_s", "s"},
    {"comm.simulate_s", "s"},
    {"comm.setup_residual_s", "s"},
    {"comm.ns_per_step", "ns"},
    {"comm.ns_per_transmission", "ns"},
    {"comm.events", "count"},
    {"comm.distinct_labels", "count"},
    {"comm.dedup_factor", "ratio"},
    {"comm.transmissions", "count"},
    {"comm.sim_steps", "count"},
    {"comm.max_queue", "count"},
    {"comm.deferred_injections", "count"},
    {"comm.deferred_steps", "count"},
    {"comm.delivered_rate", "1/node/step"},
    {"comm.p99_latency_steps", "steps"},
    {"comm.link_balance", "ratio"},
    {"query.route_batch_s", "s"},
    {"query.route_qps_1t", "1/s"},
    {"query.thread_scaling", "ratio"},
    {"query.cache_hit_ratio", "ratio"},
    {"query.cache_hits", "count"},
    {"query.cache_misses", "count"},
    {"query.cache_evictions", "count"},
    {"query.table_build_s", "s"},
    {"query.table_load_s", "s"},
    {"query.mean_route_hops", "hops"},
    {"query.lifted_stretch", "ratio"},
    {"support.pool_dispatch_us", "us"},
    {"graph.csr_build_s", "s"},
    {"graph.transpose_s", "s"},
    {"graph.sweep_1t_s", "s"},
    {"graph.sweep_scaling", "ratio"},
    {"graph.fault_analysis_ms", "ms"},
    {"routing.container_build_ms", "ms"},
    {"routing.fault_route_us", "us"},
    {"traffic.wall_s", "s"},
    {"traffic.closed_wall_s", "s"},
    {"query.batch_ms", "ms"},
    {"query.route_qps", "1/s"},
    {"query.distance_qps", "1/s"},
    {"distance.sweep_s", "s"},
    {"faults.campaign_s", "s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: scg_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n"
               "       [--emit-goldens] [--tiny] "
               "[--git-describe <text>]\n",
               Why);
  std::exit(2);
}

Options parse(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    try {
      if (A == "--workload")
        O.Workload = Value();
      else if (A == "--seed")
        O.Seed = std::stoull(Value());
      else if (A == "--seconds")
        O.Seconds = std::stod(Value());
      else if (A == "--trace")
        O.Trace = std::stoi(Value()) != 0;
      else if (A == "--work-dir")
        O.WorkDir = Value();
      else if (A == "--git-describe")
        O.GitDescribe = Value();
      else if (A == "--emit-goldens")
        O.EmitGoldens = true;
      else if (A == "--tiny")
        O.Tiny = true;
      else
        usage(("unknown argument " + A).c_str());
    } catch (const std::exception &) {
      usage(("bad value for " + A).c_str());
    }
  }
  if (O.Workload.empty() || O.WorkDir.empty() || !(O.Seconds > 0))
    usage("--workload, --work-dir and a positive --seconds are required");
  return O;
}

void printProvenance(const Options &O) {
#ifdef NDEBUG
  const char *Asserts = "off (NDEBUG defined)";
#else
  const char *Asserts = "on (NDEBUG not defined)";
#endif
#ifdef SCG_NATIVE_BUILD
  const char *Native = "ON";
#else
  const char *Native = "OFF";
#endif
  std::printf("provenance: git %s | compiler %s | build %s | flags %s | "
              "asserts %s | SCG_NATIVE %s | hardware_concurrency %u | "
              "pool threads %u | workload %s | size %s | seed %llu "
              "(default %llu, held-out %llu) | seconds %g | trace %d\n",
              O.GitDescribe.c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS, Asserts, Native,
              std::thread::hardware_concurrency(),
              scg::effectiveThreadCount(), O.Workload.c_str(), O.sizeName(),
              (unsigned long long)O.Seed, (unsigned long long)DefaultSeed,
              (unsigned long long)HeldOutSeed, O.Seconds, int(O.Trace));
}

} // namespace

int main(int Argc, char **Argv) {
  const Options Opts = parse(Argc, Argv);
  printProvenance(Opts);

  Checks Check(Opts);
  Metrics Out;
  Tracer Trace;
  Context C{Opts, Check, Out, Trace};
  const double Start = now();
  warmUp(Opts.Tiny ? 0.05 : 1.0);
  if (Opts.Workload == "traffic_saturated")
    runTraffic(C, /*Saturated=*/true);
  else if (Opts.Workload == "traffic_sparse")
    runTraffic(C, /*Saturated=*/false);
  else if (Opts.Workload == "query_serving")
    runQuery(C);
  else if (Opts.Workload == "graph_sweeps")
    runGraph(C);
  else
    usage(("unknown workload " + Opts.Workload).c_str());
  Out.set("peak_rss_mb", peakRssMb());
  if (Opts.Trace)
    Out.set("support.pool_dispatch_us", poolDispatchMicros(2000));

  // Every metric a workload sets must be declared.
  for (const auto &[Name, Value] : Out.values()) {
    bool Known = false;
    for (const MetricDef &D : EndToEnd)
      Known |= Name == D.Name;
    for (const MetricDef &D : PerLayer)
      Known |= Name == D.Name;
    if (!Known) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", Name.c_str());
      return 3;
    }
  }

  if (Opts.Trace) {
    const std::string Path = Opts.WorkDir + "/spans-" + Opts.Workload + ".json";
    if (Trace.write(Path))
      std::printf("spans: %zu written to %s\n", Trace.spans().size(),
                  Path.c_str());
  }
  std::printf("fail_ratio %.6g (%llu failed / %llu attempted)\n",
              Check.attempted()
                  ? double(Check.failed()) / double(Check.attempted())
                  : 0.0,
              (unsigned long long)Check.failed(),
              (unsigned long long)Check.attempted());
  std::printf("run wall %.3f s\n", now() - Start);

  std::string Json = "{\"correct\": ";
  Json += Check.failed() == 0 && Check.attempted() > 0 ? "true" : "false";
  Json += ", \"attempted\": " + fmt(Check.attempted());
  Json += ", \"failed\": " + fmt(Check.failed());
  Json += ", \"metrics\": {";
  bool FirstMetric = true;
  auto Emit = [&](const MetricDef &D) {
    double V = Out.get(D.Name);
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", D.Name);
      V = 0.0;
    }
    std::printf("metric %-28s %.9g %s\n", D.Name, V, D.Unit);
    Json += FirstMetric ? "" : ", ";
    FirstMetric = false;
    Json += std::string("\"") + D.Name + "\": {\"value\": " + fmt(V) +
            ", \"unit\": \"" + D.Unit + "\"}";
  };
  if (Opts.Trace)
    for (const MetricDef &D : PerLayer)
      Emit(D);
  else
    for (const MetricDef &D : EndToEnd)
      Emit(D);
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
