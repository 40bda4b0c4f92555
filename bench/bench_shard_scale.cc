// Million-tenant scale sweep: shard (tenant) count x tenant skew on the
// lazy simulated engine, with hibernation and the hierarchical memory
// arbiter attached. The claim under measurement: every per-window cost —
// batch dispatch, arbitration, lifecycle bookkeeping, and resident
// memory — scales with the *active* tenant set, not with the configured
// total, so a 1M-shard engine serving a few thousand hot tenants costs
// about what a 10k-shard engine does.
//
// Per cell the sweep reports process RSS (VmRSS), the engine's
// materialized/hibernated/cold census, arbitration wall time per window,
// and serving throughput. Shards are chosen per op by an O(1)
// Zipf-inversion sampler over shard ids (no rejection step, so the
// hottest-tenant distribution is exact at any shard count), and keys are
// constructed to route to the chosen shard by inverting the engine's
// SplitMix64 partitioner.
//
// Flags:
//   --skews=CSV     tenant skew values swept (Zipf theta in [0,1);
//                    default 0.6,0.99)
//   --ops=N         operations per cell (default 32768)
//   --batch=N       operations per batch/window (default 512)
//   --max-shards=N  cap the shard-count sweep (default 1000000; CI smoke
//                    uses 100000)
//   --json PATH     write the sweep as a JSON artifact
//   --quick         CI smoke scale: 8192 ops per cell (the 1M-shard cell
//                    still runs unless --max-shards says otherwise)

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "camal/memory_arbiter.h"
#include "engine/sharded_engine.h"
#include "util/random.h"
#include "util/zipf.h"
#include "workload/request.h"

namespace camal::bench {
namespace {

/// Inverse of util::Mix64 (the SplitMix64 finalizer): every step of the
/// mix — add-gamma, two xorshift-multiplies, a final xorshift — is a
/// bijection, inverted here with the multipliers' modular inverses. Lets
/// the bench build a key that routes to any chosen shard in O(1):
/// Mix64(InvertMix64(z)) == z, so InvertMix64(shard + j * num_shards)
/// lands on `shard` for every j.
uint64_t InvertMix64(uint64_t x) {
  x = x ^ (x >> 31) ^ (x >> 62);
  x *= 0x319642b2d24d8ec3ULL;  // inverse of 0x94d049bb133111eb
  x = x ^ (x >> 27) ^ (x >> 54);
  x *= 0x96de1b173f119089ULL;  // inverse of 0xbf58476d1ce4e5b9
  x = x ^ (x >> 30) ^ (x >> 60);
  return x - 0x9e3779b97f4a7c15ULL;
}

/// Current VmRSS in MiB from /proc/self/status (0.0 where unavailable).
double RssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kib = 0;
    if (std::sscanf(line, "VmRSS: %ld kB", &kib) == 1) {
      mib = static_cast<double>(kib) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mib;
}

struct ScaleRow {
  size_t shards = 0;
  double skew = 0.0;
  size_t ops = 0;
  size_t windows = 0;
  double wall_ms = 0.0;         // serving wall time (exec + arbitration)
  double ops_per_sec = 0.0;
  double arb_us_per_window = 0.0;
  size_t materialized = 0;      // live shards at end of run
  size_t hibernated = 0;        // frozen shards at end of run
  size_t touched = 0;           // materialized + hibernated (ever active)
  size_t arbiter_rounds = 0;
  size_t arbiter_moves = 0;
  double rss_mib = 0.0;         // process RSS with the engine alive
};

ScaleRow RunCell(size_t num_shards, double skew, size_t num_ops,
                 size_t batch_ops) {
  tune::SystemSetup setup;
  setup.num_entries = 100000;  // nominal: shards fill from traffic, not load
  // Hold the per-shard even share fixed across cells (the MediumSetup
  // share every arbiter suite runs at) so the arbiter is active at every
  // shard count and cells differ only in tenant count.
  setup.total_memory_bits = static_cast<uint64_t>(num_shards) * 32000;
  setup.num_shards = num_shards;
  const lsm::Options options =
      tune::MonkeyDefaultConfig(setup).ToOptions(setup);

  // Lazy engine, hibernation after 8 idle windows: the steady state keeps
  // only the working set live and freezes the Zipf tail as it cools.
  engine::ShardedEngine eng(
      num_shards, options, setup.MakeDeviceConfig(),
      engine::ShardLifecycleConfig{/*lazy=*/true,
                                   /*hibernate_after_batches=*/8});
  tune::ArbiterOptions arb_opts;
  arb_opts.period_ops = batch_ops;  // one arbitration round per window
  tune::MemoryArbiter arbiter(setup, options, num_shards, arb_opts);

  // Zipf over shard ids via inversion sampling: O(1) per draw at any N.
  util::Random rng(setup.seed + num_shards);
  util::ZipfGenerator shard_pick(num_shards, skew);

  ScaleRow row;
  row.shards = num_shards;
  row.skew = skew;
  row.ops = num_ops;

  std::vector<engine::Op> ops(batch_ops);
  std::vector<engine::OpResult> results(batch_ops);
  double arb_ns_total = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (size_t done = 0; done < num_ops; done += batch_ops) {
    const size_t count = std::min(batch_ops, num_ops - done);
    for (size_t i = 0; i < count; ++i) {
      const uint64_t shard = shard_pick.Next(&rng);
      // 8 keys per tenant keep per-shard state tiny; gets and puts mix so
      // windows carry both read and write pressure.
      const uint64_t key =
          InvertMix64(shard + rng.Uniform(8) * num_shards);
      engine::Op& op = ops[i];
      op.kind = rng.Bernoulli(0.5) ? engine::OpKind::kPut
                                   : engine::OpKind::kGet;
      op.key = key;
      op.value = done + i;
      op.scan_len = 0;
    }
    eng.ExecuteOps(ops.data(), count, results.data());

    workload::BatchEvent event;
    event.batch_index = row.windows;
    event.count = count;
    event.engine_ops = ops.data();
    event.results = results.data();
    const auto arb_start = std::chrono::steady_clock::now();
    arbiter.OnBatchEvent(&eng, event);
    arb_ns_total += std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - arb_start)
                        .count();
    ++row.windows;
  }
  const auto stop = std::chrono::steady_clock::now();

  row.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  row.ops_per_sec =
      static_cast<double>(num_ops) / (row.wall_ms / 1e3);
  row.arb_us_per_window =
      arb_ns_total / 1e3 / static_cast<double>(row.windows);
  row.materialized = eng.MaterializedShards();
  for (size_t s = 0; s < num_shards; ++s) {
    if (eng.ShardLifecycle(s) == engine::ShardState::kHibernated) {
      ++row.hibernated;
    }
  }
  row.touched = row.materialized + row.hibernated;
  row.arbiter_rounds = arbiter.rounds();
  row.arbiter_moves = arbiter.moves();
  row.rss_mib = RssMib();
  return row;
}

void WriteJson(const std::string& path, const std::vector<ScaleRow>& rows) {
  WriteJsonReport(path, "shard_scale", [](std::FILE*) {}, rows,
                  [](std::FILE* f, const ScaleRow& r) {
    std::fprintf(
        f,
        "{\"shards\": %zu, \"skew\": %.3f, \"ops\": %zu, "
        "\"windows\": %zu, \"wall_ms\": %.3f, \"ops_per_sec\": %.1f, "
        "\"arb_us_per_window\": %.3f, \"materialized\": %zu, "
        "\"hibernated\": %zu, \"touched\": %zu, \"arbiter_rounds\": %zu, "
        "\"arbiter_moves\": %zu, \"rss_mib\": %.1f}",
        r.shards, r.skew, r.ops, r.windows, r.wall_ms, r.ops_per_sec,
        r.arb_us_per_window, r.materialized, r.hibernated, r.touched,
        r.arbiter_rounds, r.arbiter_moves, r.rss_mib);
  });
}

void Run(const std::vector<size_t>& shard_counts,
         const std::vector<double>& skews, size_t num_ops, size_t batch_ops,
         const std::string& json_path) {
  // The partitioner inverse is load-bearing for the whole sweep: verify
  // the round-trip before trusting any cell.
  for (uint64_t z = 0; z < 4096; ++z) {
    if (util::Mix64(InvertMix64(z)) != z) {
      std::fprintf(stderr, "InvertMix64 self-check failed at %" PRIu64 "\n",
                   z);
      std::exit(1);
    }
  }

  std::printf("Shard scale sweep: %zu point ops per cell, %zu-op windows, "
              "lazy shards + hibernation (8 idle windows) + hierarchical "
              "arbiter\n",
              num_ops, batch_ops);
  std::printf("baseline RSS %.1f MiB\n\n", RssMib());
  std::printf("%9s %5s %10s %11s %12s %12s %10s %9s %9s\n", "shards",
              "skew", "wall ms", "ops/sec", "arb us/win", "materialized",
              "hibernated", "rounds", "RSS MiB");
  PrintRule(96);

  std::vector<ScaleRow> rows;
  for (const double skew : skews) {
    for (const size_t shards : shard_counts) {
      const ScaleRow row = RunCell(shards, skew, num_ops, batch_ops);
      std::printf(
          "%9zu %5.2f %10.1f %11.0f %12.2f %12zu %10zu %9zu %9.1f\n",
          row.shards, row.skew, row.wall_ms, row.ops_per_sec,
          row.arb_us_per_window, row.materialized, row.hibernated,
          row.arbiter_rounds, row.rss_mib);
      rows.push_back(row);
    }
    std::printf("\n");
  }
  std::printf("touched = shards that ever materialized; everything else "
              "stayed cold (a few pointers each).\n");
  if (!json_path.empty()) WriteJson(json_path, rows);
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreads(&argc, argv);
  const std::string json_path = camal::bench::TakeJsonFlag(&argc, argv);

  size_t num_ops = 32768;
  size_t batch_ops = 512;
  size_t max_shards = 1000000;
  std::vector<double> skews = {0.6, 0.99};

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
  for (int i = 1; i < argc; ++i) {
    uint64_t value = 0;
    if (std::strcmp(argv[i], "--quick") == 0) {
      num_ops = 8192;
    } else if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      if (!parse_count("--ops", argv[i] + 6, &value)) return 1;
      num_ops = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      if (!parse_count("--batch", argv[i] + 8, &value)) return 1;
      batch_ops = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--max-shards=", 13) == 0) {
      if (!parse_count("--max-shards", argv[i] + 13, &value)) return 1;
      if (value > camal::tune::SystemSetup::kMaxShards) {
        std::fprintf(stderr,
                     "--max-shards %llu is past the supported ceiling "
                     "(16M)\n",
                     static_cast<unsigned long long>(value));
        return 1;
      }
      max_shards = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--skews=", 8) == 0) {
      skews.clear();
      const char* p = argv[i] + 8;
      while (*p != '\0') {
        char* end = nullptr;
        errno = 0;
        const double v = std::strtod(p, &end);
        if (end == p || v < 0.0 || v >= 1.0 || errno == ERANGE ||
            (*end != '\0' && *end != ',')) {
          std::fprintf(stderr,
                       "invalid --skews value '%s' (want a CSV of Zipf "
                       "thetas in [0, 1), e.g. --skews=0,0.6,0.99)\n",
                       argv[i] + 8);
          return 1;
        }
        skews.push_back(v);
        p = *end == ',' ? end + 1 : end;
      }
      if (skews.empty()) {
        std::fprintf(stderr, "--skews needs at least one value\n");
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  std::vector<size_t> shard_counts;
  for (const size_t n : {size_t{1000}, size_t{10000}, size_t{100000},
                         size_t{1000000}}) {
    if (n <= max_shards) shard_counts.push_back(n);
  }
  if (shard_counts.empty()) shard_counts.push_back(max_shards);

  camal::bench::Run(shard_counts, skews, num_ops, batch_ops, json_path);
  return 0;
}
