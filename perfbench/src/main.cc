// End-to-end benchmark program: runs one named workload at one seed for a
// time budget, checks every result, and prints one JSON line.
//
//   perfbench --workload sim-gateway|tune-drift --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Engines, tuner sampling and evaluation all run inline on the driving
// thread: on a virtual machine whose idle vCPUs the host deschedules, each
// pool fan-out waits for a vCPU to be rescheduled, and wall-clock figures
// then swing with the host's load.
//
// A run repeats the workload (a full set-up plus its measured phase) until
// the budget is spent, at least a workload-specific minimum number of
// times. Every repetition of one seed has identical inputs, so values that
// are a pure function of the seed must agree bit for bit across
// repetitions; wall-clock values are reported as medians over them.
// The end-to-end timings (set-up time and throughput) are scaled to a
// reference host speed by a calibration taken before and after every
// measured phase (see CalibrationMs()).
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced repetitions and reports the per-layer metrics, every layer's
// self time, and the tracing overhead (untraced over traced ops/s); the
// exact values must also agree between the traced and untraced
// repetitions. The last line of stdout is a JSON object; the exit code is
// nonzero when any check failed.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct WorkloadInfo {
  const char* name;
  RepResult (*run)(const RepConfig&);
  /// Repetitions a run makes even when the budget is spent earlier.
  int min_reps;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"sim-gateway", RunSimGateway, 3},
    {"tune-drift", RunTuneDrift, 2},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), common to every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"ref_ops_per_s", "ops/s"},
    {"lat_p50_us", "us"},    {"lat_p99_us", "us"},
    {"ios_per_op", "blocks/op"},
};

/// Per-layer metrics (--trace 1). A workload that never reaches a layer's
/// call reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"serve.submit_ns", "ns"},
    {"serve.dispatch_self_ns", "ns/op"},
    {"serve.ops_per_batch", "ops"},
    {"serve.queue_p99_us", "us"},
    {"serve.shed_frac", "fraction"},
    {"serve.slo_rate_kops", "kop/s"},
    {"workload.gen_ns", "ns"},
    {"engine.exec_ns", "ns/op"},
    {"engine.get_ios", "blocks/op"},
    {"engine.put_ios", "blocks/op"},
    {"engine.scan_ios", "blocks/op"},
    {"engine.get_lat_us", "us"},
    {"engine.put_lat_us", "us"},
    {"engine.scan_lat_us", "us"},
    {"engine.reconfigure_ms", "ms"},
    {"lsm.flushes_per_kop", "1/kop"},
    {"lsm.merges_per_kop", "1/kop"},
    {"lsm.compaction_ios_per_op", "blocks/op"},
    {"lsm.transition_ios_per_op", "blocks/op"},
    {"lsm.cache_hit_frac", "fraction"},
    {"sim.read_blocks_per_op", "blocks/op"},
    {"sim.write_blocks_per_op", "blocks/op"},
    {"camal.tune_s", "s"},
    {"camal.sample_cost_s", "sim-s"},
    {"camal.tuned_lat_us", "us"},
    {"camal.sample_ms", "ms"},
    {"camal.samples", "count"},
    {"camal.recommend_ms", "ms"},
    {"camal.phase_self_ns", "ns/op"},
    {"camal.dynamic_mean_lat_us", "us"},
    {"camal.reconfigurations", "count"},
    {"camal.races_started", "count"},
    {"camal.race_switches", "count"},
    {"camal.arbiter_rounds", "count"},
    {"camal.arbiter_moves", "count"},
    {"ml.fit_ms", "ms"},
    {"model.default_lat_us", "us"},
    {"model.static_classic_lat_us", "us"},
    {"model.point_ios_residual", "blocks/op"},
    {"model.range_ios_residual", "blocks/op"},
    {"model.write_ios_residual", "blocks/op"},
    {"fail_frac", "fraction"},
    {"self.bench_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.workload_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.lsm_ms", "ms"},
    {"self.camal_ms", "ms"},
    {"self.ml_ms", "ms"},
    {"self.model_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"wall_ops_per_s", "ops/s"},
    {"wall_setup_s", "s"},
    {"host.calibration_ms", "ms"},
};

/// Spans written to --trace-out (the totals cover every span recorded).
constexpr size_t kMaxWrittenSpans = 200000;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim-gateway|tune-drift --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

uint64_t ParseUint(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || s[0] == '-') {
    Usage((std::string("invalid ") + flag + " value").c_str());
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseUint("--seed", value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseUint("--seconds", value));
    } else if (flag == "--trace") {
      const uint64_t t = ParseUint("--trace", value);
      if (t > 1) Usage("--trace takes 0 or 1");
      args.trace = t == 1;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Appends to `diffs` every key present in both maps whose values differ
/// in any bit.
void CompareExact(const Metrics& want, const Metrics& got,
                  const std::string& label, std::vector<std::string>* diffs) {
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    if (it != got.end() && !SameBits(value, it->second)) {
      char line[256];
      std::snprintf(line, sizeof(line), "%s: %s %.17g != %.17g",
                    label.c_str(), name.c_str(), value, it->second);
      diffs->push_back(line);
    }
  }
}

/// Exact values plus the workload properties, under one namespace.
Metrics AllExact(const RepResult& r) {
  Metrics all = r.exact;
  for (const auto& [name, value] : r.props) all["prop." + name] = value;
  return all;
}

void PrintJsonNumber(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fprintf(f, "0");
  }
}

void PrintMetricsObject(std::FILE* f, const Metrics& values,
                        const MetricSpec* specs, size_t num_specs) {
  std::fprintf(f, "{");
  for (size_t i = 0; i < num_specs; ++i) {
    const auto it = values.find(specs[i].name);
    std::fprintf(f, "%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                 specs[i].name);
    PrintJsonNumber(f, it == values.end() ? 0.0 : it->second);
    std::fprintf(f, ", \"unit\": \"%s\"}", specs[i].unit);
  }
  std::fprintf(f, "}");
}

void PrintPlainObject(std::FILE* f, const Metrics& values) {
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, value] : values) {
    std::fprintf(f, "%s\"%s\": ", first ? "" : ", ", name.c_str());
    PrintJsonNumber(f, value);
    first = false;
  }
  std::fprintf(f, "}");
}

/// Near `CalibrationMs()` on the machine the bounds were sized on (a 4-vCPU
/// virtual machine on a shared Xeon host). Only a scale: it makes the
/// scaled timings read like wall-clock timings on that machine.
constexpr double kReferenceCalibrationMs = 95.0;

/// Every measured phase's throughput across `reps`.
std::vector<double> AllOpsPerSecond(const std::vector<RepResult>& reps) {
  std::vector<double> all;
  for (const RepResult& r : reps) {
    all.insert(all.end(), r.ops_per_s.begin(), r.ops_per_s.end());
  }
  return all;
}

std::vector<double> AllCalibrationMs(const std::vector<RepResult>& reps) {
  std::vector<double> all;
  for (const RepResult& r : reps) {
    all.insert(all.end(), r.calibration_ms.begin(), r.calibration_ms.end());
  }
  return all;
}

/// Wall time times this is the time at the reference host speed (and wall
/// throughput divided by it the throughput there). It comes from the
/// median calibration of the same repetitions: a host that runs slower for
/// a while slows the calibration as much as the workload, so the scaled
/// figures stay put. Medians of each, not of per-phase products: one
/// calibration is short and swings more than a measured phase does.
double HostSpeedFactor(const std::vector<RepResult>& reps) {
  return kReferenceCalibrationMs / Median(AllCalibrationMs(reps));
}

double MedianSetupSeconds(const std::vector<RepResult>& reps) {
  std::vector<double> setup;
  for (const RepResult& r : reps) setup.push_back(r.setup_s);
  return Median(setup);
}

/// Median throughput of `reps` at the reference host speed.
double RefOpsPerSecond(const std::vector<RepResult>& reps) {
  return Median(AllOpsPerSecond(reps)) / HostSpeedFactor(reps);
}

/// Median over `reps` of one wall-clock value.
double MedianTiming(const std::vector<RepResult>& reps, const std::string& key) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    const auto it = r.timing.find(key);
    if (it != r.timing.end()) v.push_back(it->second);
  }
  return v.empty() ? 0.0 : Median(v);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (args.workload == w.name) info = &w;
  }
  if (info == nullptr) Usage(("unknown workload " + args.workload).c_str());

  RepConfig base;
  base.seed = args.seed;

  const int64_t run_start = WallNs();
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<RepResult> raw;
  std::unique_ptr<Tracer> last_tracer;
  double last_rep_s = 0.0;
  const auto budget_left = [&] {
    return SecondsSince(run_start) + last_rep_s <= args.seconds;
  };
  for (int i = 0; i < info->min_reps || budget_left(); ++i) {
    const int64_t rep_start = WallNs();
    if (!args.trace || i % 2 == 0) {
      untraced.push_back(info->run(base));
    } else {
      auto tracer = std::make_unique<Tracer>();
      RepConfig cfg = base;
      cfg.tracer = tracer.get();
      traced.push_back(info->run(cfg));
      AddLayerSelfTimes(*tracer, &traced.back().timing);
      last_tracer = std::move(tracer);
    }
    last_rep_s = SecondsSince(rep_start);
    const RepResult& done =
        !args.trace || i % 2 == 0 ? untraced.back() : traced.back();
    std::string rates;
    for (double r : done.ops_per_s) rates += " " + std::to_string(r);
    rates += ", calibration ms";
    for (double c : done.calibration_ms) rates += " " + std::to_string(c);
    std::fprintf(stderr,
                 "perfbench: %s seed %llu rep %d (%s) %.2f s: setup %.3f s, "
                 "ops/s%s\n",
                 info->name, static_cast<unsigned long long>(args.seed), i,
                 !args.trace || i % 2 == 0 ? "untraced" : "traced",
                 last_rep_s, done.setup_s, rates.c_str());
  }
  if (args.trace && std::string(info->name) == "tune-drift") {
    // Wrapper parity: the same repetition on the bare engine.
    RepConfig cfg = base;
    cfg.raw_engine = true;
    raw.push_back(info->run(cfg));
  }

  // ---- checks
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<const RepResult*> all;
  for (const auto* group : {&untraced, &traced, &raw}) {
    for (const RepResult& r : *group) all.push_back(&r);
  }
  for (const RepResult* r : all) {
    attempted += r->attempted;
    failed += r->failed;
    mismatches += r->mismatches;
    problems.insert(problems.end(), r->problems.begin(), r->problems.end());
  }
  if (mismatches > 0) {
    problems.push_back("oracle: " + std::to_string(mismatches) +
                       " results contradict the ordered-map oracle");
  }
  const Metrics reference = AllExact(untraced.front());
  for (size_t i = 1; i < untraced.size(); ++i) {
    const Metrics got = AllExact(untraced[i]);
    if (got.size() != reference.size()) {
      problems.push_back("exact: repetitions report different value sets");
    }
    CompareExact(reference, got, "untraced rep " + std::to_string(i),
                 &problems);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    CompareExact(reference, AllExact(traced[i]),
                 "traced rep " + std::to_string(i), &problems);
  }
  for (size_t i = 0; i < raw.size(); ++i) {
    CompareExact(reference, AllExact(raw[i]), "bare-engine rep", &problems);
  }

  // ---- end-to-end values (untraced repetitions only)
  Metrics e2e;
  {
    e2e["setup_s"] = MedianSetupSeconds(untraced) * HostSpeedFactor(untraced);
    e2e["ref_ops_per_s"] = RefOpsPerSecond(untraced);
    // Simulated on both workloads, so a pure function of the seed.
    for (const char* name : {"lat_p50_us", "lat_p99_us", "ios_per_op"}) {
      e2e[name] = untraced.front().exact.at(name);
    }
  }

  // ---- per-layer values (traced repetitions; exact values from any)
  Metrics layer;
  if (args.trace) {
    for (const auto& [name, value] : untraced.front().exact) {
      layer[name] = value;
    }
    for (const auto& [name, value] : traced.front().exact) {
      if (layer.count(name) == 0) layer[name] = value;
    }
    for (const auto& [name, value] : traced.front().timing) {
      (void)value;
      layer[name] = MedianTiming(traced, name);
    }
    layer["trace.overhead"] =
        RefOpsPerSecond(untraced) / RefOpsPerSecond(traced);
    layer["wall_ops_per_s"] = Median(AllOpsPerSecond(untraced));
    layer["wall_setup_s"] = MedianSetupSeconds(untraced);
    layer["host.calibration_ms"] = Median(AllCalibrationMs(untraced));
    if (last_tracer != nullptr && !args.trace_out.empty() &&
        !last_tracer->Write(args.trace_out, kMaxWrittenSpans)) {
      problems.push_back("cannot write spans to " + args.trace_out);
    }
  }

  // ---- report
  std::printf("workload %s seed %llu: %zu untraced, %zu traced, %zu "
              "bare-engine repetitions in %.1f s\n",
              info->name, static_cast<unsigned long long>(args.seed),
              untraced.size(), traced.size(), raw.size(),
              SecondsSince(run_start));
  std::printf("  untraced: %.1f wall ops/s, %.4f s wall set-up, calibration "
              "%.2f ms (medians)\n",
              Median(AllOpsPerSecond(untraced)), MedianSetupSeconds(untraced),
              Median(AllCalibrationMs(untraced)));
  const Metrics& shown = args.trace ? layer : e2e;
  const MetricSpec* specs = args.trace ? kPerLayer : kEndToEnd;
  const size_t num_specs = args.trace ? sizeof(kPerLayer) / sizeof(kPerLayer[0])
                                      : sizeof(kEndToEnd) / sizeof(kEndToEnd[0]);
  for (size_t i = 0; i < num_specs; ++i) {
    const auto it = shown.find(specs[i].name);
    std::printf("  %-30s %18.6f %s%s\n", specs[i].name,
                it == shown.end() ? 0.0 : it->second, specs[i].unit,
                untraced.front().exact.count(specs[i].name) != 0 ? "  (exact)"
                                                                 : "");
  }
  std::printf("  attempted %llu failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("workload properties:\n");
  for (const auto& [name, value] : untraced.front().props) {
    std::printf("  %-30s %18.6f\n", name.c_str(), value);
  }
  for (const std::string& p : problems) std::printf("CHECK FAILED %s\n", p.c_str());

  const bool correct = problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  PrintMetricsObject(stdout, shown, specs, num_specs);
  std::printf(", \"exact\": ");
  PrintPlainObject(stdout, reference);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
