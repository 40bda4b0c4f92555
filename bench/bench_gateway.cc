// Open-loop gateway overload bench: requests arrive on a virtual-time
// clock (Poisson or bursty), pass per-tenant admission at serve::Gateway,
// and are coalesced into ExecuteOps batches. The sweep crosses arrival
// pattern x offered load x admission policy and reports end-to-end tail
// latency (queueing + service) and the shed rate.
//
// Expected shape: below saturation (load < 1) the two policies agree —
// queues stay shallow, nothing is shed. Under bursty overload (load > 1)
// the admission-off rows collapse (p99 grows with the backlog, toward the
// makespan) while admission-on rows shed a nonzero fraction and keep p99
// bounded near depth x service — the overload-policy tradeoff the serve
// layer exists to make explicit.
//
// The offered load is calibrated per backend: a closed-loop run over an
// identically built engine measures the mean per-op service time, and
// load L sets the mean inter-arrival gap to service/L.
//
// Flags:
//   --tenants=N    per-tenant queues, mapped 1:1 onto engine shards
//                  (default 4)
//   --ops=N        requests per cell (default 20000)
//   --entries=N    initially loaded entries (default 8000)
//   --pattern=P    poisson | bursty | both (default both)
//   --admission=A  on | off | both (default both)
//   --depth=N      per-tenant queue depth bound (default 64)
//   --rate=F       per-tenant token-bucket rate limit, ops/sim-second
//                  (default 0: off)
//   --burst=N      token-bucket burst capacity (default 32)
//   --skew=F       Zipf tenant-traffic hotness (default 0: uniform)
//   --backend=B    sim | file | both (default sim)
//   --workdir=P    base directory for file-backend run files
//   --json PATH    also write the sweep as a JSON artifact
//   --quick        tiny scale for CI smoke

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/file_engine.h"
#include "engine/sharded_engine.h"
#include "serve/gateway.h"
#include "util/random.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::bench {
namespace {

struct GatewayBenchConfig {
  size_t tenants = 4;
  size_t num_ops = 20000;
  uint64_t entries = 8000;
  bool run_poisson = true;
  bool run_bursty = true;
  bool run_admission_on = true;
  bool run_admission_off = true;
  size_t queue_depth = 64;
  double rate_limit = 0.0;
  size_t rate_burst = 32;
  double skew = 0.0;
  bool run_sim = true;
  bool run_file = false;
  std::string workdir;  // file backend; empty = system temp dir
};

struct GatewayRow {
  const char* backend = "sim";
  const char* pattern = "poisson";
  bool admission = true;
  double load = 0.0;
  uint64_t submitted = 0;
  double shed_frac = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double queue_p99_us = 0.0;
  double service_mean_us = 0.0;
  uint64_t max_depth = 0;
  uint64_t batches = 0;
  double wall_ms = 0.0;
};

tune::SystemSetup MakeSetup(const GatewayBenchConfig& cfg) {
  tune::SystemSetup setup;
  setup.num_entries = cfg.entries;
  setup.total_memory_bits = 16 * cfg.entries;
  setup.num_shards = cfg.tenants;
  tune::ValidateOrDie(setup);
  return setup;
}

std::unique_ptr<engine::StorageEngine> BuildEngine(
    const GatewayBenchConfig& cfg, const tune::SystemSetup& setup,
    const workload::KeySpace& keys, bool file_backend) {
  const tune::TuningConfig config = tune::MonkeyDefaultConfig(setup);
  std::unique_ptr<engine::StorageEngine> eng;
  if (file_backend) {
    engine::FileEngineConfig fcfg;
    if (!cfg.workdir.empty()) {
      fcfg.workdir = cfg.workdir + "/gw_" +
                     std::to_string(engine::FileEngine::NextUniqueId());
    }
    eng = std::make_unique<engine::FileEngine>(
        cfg.tenants, config.ToOptions(setup), fcfg);
  } else {
    eng = std::make_unique<engine::ShardedEngine>(
        cfg.tenants, config.ToOptions(setup), setup.MakeDeviceConfig());
  }
  workload::BulkLoad(eng.get(), keys);
  return eng;
}

/// Mean per-op service time (engine-attributed) of the cell's mix on an
/// identically built engine, via a closed-loop run — the unit offered
/// load is expressed in.
double CalibrateServiceNs(const GatewayBenchConfig& cfg,
                          const tune::SystemSetup& setup,
                          const workload::KeySpace& keys,
                          const model::WorkloadSpec& mix, bool file_backend) {
  auto eng = BuildEngine(cfg, setup, keys, file_backend);
  workload::ExecutorConfig exec;
  exec.num_ops = std::max<size_t>(2000, cfg.num_ops / 4);
  exec.generator.scan_len = setup.scan_len;
  exec.generator.shard_skew = cfg.skew;
  exec.generator.num_shards = cfg.tenants;
  exec.seed = setup.seed + 77;
  // Steady-state updates only: the shared KeySpace stays immutable.
  const workload::ExecutionResult r = workload::Execute(
      eng.get(), mix, exec, const_cast<workload::KeySpace*>(&keys));
  return std::max(1.0, r.MeanLatencyNs());
}

GatewayRow RunCell(const GatewayBenchConfig& cfg, bool bursty, double load,
                   bool admission, bool file_backend, double service_ns) {
  const tune::SystemSetup setup = MakeSetup(cfg);
  workload::KeySpace keys(setup.num_entries, setup.seed);
  auto eng = BuildEngine(cfg, setup, keys, file_backend);

  serve::GatewayConfig gcfg;
  gcfg.num_tenants = cfg.tenants;
  gcfg.max_queue_depth = cfg.queue_depth;
  gcfg.admission_control = admission;
  gcfg.rate_limit_ops_per_sec = cfg.rate_limit;
  gcfg.rate_limit_burst = cfg.rate_burst;
  serve::Gateway gateway(eng.get(), gcfg);

  // The same generated stream regardless of arrival pattern; tenant skew
  // rides the generator's per-shard traffic bias.
  const model::WorkloadSpec mix{0.2, 0.3, 0.2, 0.3};
  workload::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = setup.scan_len;
  gen_cfg.shard_skew = cfg.skew;
  gen_cfg.num_shards = cfg.tenants;
  workload::OperationGenerator gen(mix, &keys, gen_cfg, setup.seed + 1);
  util::Random arrivals(setup.seed + 2);

  // Mean inter-arrival gap for offered load L: service/L. Bursty traffic
  // preserves the mean — groups of kBurstOps arrive at gap/4 spacing,
  // then the stream idles the rest of the group's budget.
  const double gap_ns = service_ns / load;
  constexpr size_t kBurstOps = 64;

  const auto start = std::chrono::steady_clock::now();
  double clock_ns = 0.0;
  for (size_t i = 0; i < cfg.num_ops; ++i) {
    if (bursty) {
      clock_ns += gap_ns / 4.0;
      if ((i + 1) % kBurstOps == 0) {
        clock_ns += gap_ns * 0.75 * static_cast<double>(kBurstOps);
      }
    } else {
      clock_ns += -gap_ns * std::log(1.0 - arrivals.NextDouble());
    }
    const workload::Operation op = gen.Next();
    const engine::Op engine_op = workload::ToEngineOp(op);
    gateway.Submit(
        static_cast<uint32_t>(eng->ShardIndex(engine_op.key)), engine_op,
        static_cast<uint64_t>(clock_ns));
  }
  gateway.Flush();
  const auto stop = std::chrono::steady_clock::now();

  const serve::GatewayStats stats = gateway.StatsSnapshot();
  GatewayRow row;
  row.backend = file_backend ? "file" : "sim";
  row.pattern = bursty ? "bursty" : "poisson";
  row.admission = admission;
  row.load = load;
  row.submitted = stats.submitted;
  row.shed_frac = stats.ShedFraction();
  row.p50_us = stats.total_latency_ns.Quantile(0.5) / 1e3;
  row.p99_us = stats.total_latency_ns.Quantile(0.99) / 1e3;
  row.p999_us = stats.total_latency_ns.Quantile(0.999) / 1e3;
  row.queue_p99_us = stats.queue_latency_ns.Quantile(0.99) / 1e3;
  row.service_mean_us = stats.service_latency_ns.Mean() / 1e3;
  row.max_depth = stats.max_queue_depth;
  row.batches = stats.batches;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return row;
}

void WriteJson(const std::string& path, const GatewayBenchConfig& cfg,
               const std::vector<GatewayRow>& rows) {
  const auto header = [&cfg](std::FILE* f) {
    std::fprintf(f, "  \"tenants\": %zu,\n  \"ops\": %zu,\n", cfg.tenants,
                 cfg.num_ops);
    std::fprintf(f, "  \"queue_depth\": %zu,\n  \"skew\": %.3f,\n",
                 cfg.queue_depth, cfg.skew);
  };
  WriteJsonReport(path, "gateway", header, rows,
                  [](std::FILE* f, const GatewayRow& r) {
    std::fprintf(f,
                 "{\"backend\": \"%s\", \"pattern\": \"%s\", "
                 "\"admission\": %s, \"load\": %.2f, "
                 "\"submitted\": %llu, \"shed_frac\": %.4f, "
                 "\"p50_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f, "
                 "\"queue_p99_us\": %.3f, \"service_mean_us\": %.3f, "
                 "\"max_depth\": %llu, \"batches\": %llu, "
                 "\"wall_ms\": %.3f}",
                 r.backend, r.pattern, r.admission ? "true" : "false",
                 r.load, static_cast<unsigned long long>(r.submitted),
                 r.shed_frac, r.p50_us, r.p99_us, r.p999_us, r.queue_p99_us,
                 r.service_mean_us,
                 static_cast<unsigned long long>(r.max_depth),
                 static_cast<unsigned long long>(r.batches), r.wall_ms);
  });
}

void Run(const GatewayBenchConfig& cfg, const std::string& json_path) {
  std::printf("Gateway overload sweep: %zu requests across %zu tenants "
              "(engine shards), depth bound %zu, skew %.2f\n"
              "latency = queueing + service (end to end); load is offered "
              "arrival rate / calibrated service rate\n\n",
              cfg.num_ops, cfg.tenants, cfg.queue_depth, cfg.skew);
  std::printf("%5s %8s %5s %5s %7s %9s %9s %9s %9s %7s %8s\n", "back",
              "pattern", "adm", "load", "shed", "p50 us", "p99 us",
              "p999 us", "q p99", "depth", "wall ms");
  PrintRule(94);

  const std::vector<double> loads = {0.7, 1.0, 1.5};
  const model::WorkloadSpec mix{0.2, 0.3, 0.2, 0.3};
  std::vector<GatewayRow> rows;
  for (int file = 0; file <= 1; ++file) {
    if (file == 0 && !cfg.run_sim) continue;
    if (file == 1 && !cfg.run_file) continue;
    const tune::SystemSetup setup = MakeSetup(cfg);
    const workload::KeySpace keys(setup.num_entries, setup.seed);
    const double service_ns =
        CalibrateServiceNs(cfg, setup, keys, mix, file == 1);
    std::printf("[bench] %s backend: calibrated mean service %.2f us/op\n",
                file == 1 ? "file" : "sim", service_ns / 1e3);
    for (int bursty = 0; bursty <= 1; ++bursty) {
      if (bursty == 0 && !cfg.run_poisson) continue;
      if (bursty == 1 && !cfg.run_bursty) continue;
      for (double load : loads) {
        for (int adm = 1; adm >= 0; --adm) {
          if (adm == 1 && !cfg.run_admission_on) continue;
          if (adm == 0 && !cfg.run_admission_off) continue;
          const GatewayRow row = RunCell(cfg, bursty == 1, load, adm == 1,
                                         file == 1, service_ns);
          std::printf(
              "%5s %8s %5s %5.2f %6.2f%% %9.1f %9.1f %9.1f %9.1f %7llu "
              "%8.1f\n",
              row.backend, row.pattern, row.admission ? "on" : "off",
              row.load, 100.0 * row.shed_frac, row.p50_us, row.p99_us,
              row.p999_us, row.queue_p99_us,
              static_cast<unsigned long long>(row.max_depth), row.wall_ms);
          rows.push_back(row);
        }
      }
    }
  }
  if (!json_path.empty()) WriteJson(json_path, cfg, rows);
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreads(&argc, argv);
  const std::string json_path = camal::bench::TakeJsonFlag(&argc, argv);

  camal::bench::GatewayBenchConfig cfg;
  const auto parse_count = [](const char* flag, const char* s,
                              uint64_t* out) {
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || v <= 0 || errno == ERANGE) {
      std::fprintf(stderr, "invalid %s value '%s'\n", flag, s);
      return false;
    }
    *out = static_cast<uint64_t>(v);
    return true;
  };
  const auto parse_frac = [](const char* flag, const char* s, double* out) {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || v < 0.0 || errno == ERANGE) {
      std::fprintf(stderr, "invalid %s value '%s'\n", flag, s);
      return false;
    }
    *out = v;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    uint64_t value = 0;
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.num_ops = 6000;
      cfg.entries = 4000;
    } else if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      if (!parse_count("--tenants", argv[i] + 10, &value)) return 1;
      cfg.tenants = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      if (!parse_count("--ops", argv[i] + 6, &value)) return 1;
      cfg.num_ops = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--entries=", 10) == 0) {
      if (!parse_count("--entries", argv[i] + 10, &value)) return 1;
      cfg.entries = value;
    } else if (std::strncmp(argv[i], "--depth=", 8) == 0) {
      if (!parse_count("--depth", argv[i] + 8, &value)) return 1;
      cfg.queue_depth = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--burst=", 8) == 0) {
      if (!parse_count("--burst", argv[i] + 8, &value)) return 1;
      cfg.rate_burst = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--rate=", 7) == 0) {
      if (!parse_frac("--rate", argv[i] + 7, &cfg.rate_limit)) return 1;
    } else if (std::strncmp(argv[i], "--skew=", 7) == 0) {
      if (!parse_frac("--skew", argv[i] + 7, &cfg.skew)) return 1;
    } else if (std::strncmp(argv[i], "--pattern=", 10) == 0) {
      const char* p = argv[i] + 10;
      if (std::strcmp(p, "poisson") == 0) {
        cfg.run_bursty = false;
      } else if (std::strcmp(p, "bursty") == 0) {
        cfg.run_poisson = false;
      } else if (std::strcmp(p, "both") != 0) {
        std::fprintf(stderr,
                     "invalid --pattern value '%s' (poisson|bursty|both)\n",
                     p);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--admission=", 12) == 0) {
      const char* a = argv[i] + 12;
      if (std::strcmp(a, "on") == 0) {
        cfg.run_admission_off = false;
      } else if (std::strcmp(a, "off") == 0) {
        cfg.run_admission_on = false;
      } else if (std::strcmp(a, "both") != 0) {
        std::fprintf(stderr,
                     "invalid --admission value '%s' (on|off|both)\n", a);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      const char* backend = argv[i] + 10;
      if (std::strcmp(backend, "sim") == 0) {
        cfg.run_file = false;
      } else if (std::strcmp(backend, "file") == 0) {
        cfg.run_sim = false;
        cfg.run_file = true;
      } else if (std::strcmp(backend, "both") == 0) {
        cfg.run_file = true;
      } else {
        std::fprintf(stderr, "invalid --backend value '%s' (sim|file|both)\n",
                     backend);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--workdir=", 10) == 0) {
      cfg.workdir = argv[i] + 10;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  camal::bench::Run(cfg, json_path);
  return 0;
}
