// sim-gateway: open-loop serving on the simulated backend.
//
// One producer replays a pre-generated, seeded Poisson arrival trace over
// four tenants (tenant = the engine shard a key routes to) through
// serve::Gateway with admission on, in front of a lazy four-shard
// ShardedEngine (run inline) and a MemoryArbiter observing the gateway's
// batches. The mix is read-mostly with short scans and updates of existing
// keys, so the key count never changes. The data is 16x the total block
// cache.
//
// The main pass runs at one fixed rate below saturation; short passes over
// a fixed rate ladder then find the highest rate that meets the latency
// limit with nothing shed and no growing backlog. Every simulated figure
// (latencies, I/O, admission decisions) is a pure function of the seed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "camal/memory_arbiter.h"
#include "camal/sample.h"
#include "common.h"
#include "engine/sharded_engine.h"
#include "serve/gateway.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/request.h"

namespace perfbench {

namespace {

using camal::engine::Op;
using camal::engine::OpKind;

constexpr size_t kShards = 4;
constexpr uint64_t kEntries = 200000;
constexpr uint64_t kEntryBytes = 128;
/// Block cache: 1/16 of the data.
constexpr uint64_t kCacheBytes = kEntries * kEntryBytes / 16;
constexpr uint64_t kBufferBytes = 1 << 20;
constexpr double kBloomBitsPerKey = 10.0;
constexpr double kTenantSkew = 1.0;
constexpr double kKeySkew = 0.8;
/// Zero-result lookups, non-zero-result lookups, scans, updates.
constexpr double kMix[4] = {0.15, 0.55, 0.05, 0.25};
constexpr size_t kScanLen = 16;

constexpr size_t kMainOps = 300000;
/// Per-tenant admission bound: deep enough that the hot tenant's queue
/// rides out a level merge at the main rate without shedding.
constexpr size_t kQueueDepth = 1024;
/// Offered load of the main pass, requests per simulated second.
constexpr double kMainRate = 6000.0;
/// Rate ladder for the SLO search, requests per simulated second.
constexpr double kLadder[] = {4000.0, 5000.0, 6000.0,  7000.0,
                              8000.0, 9000.0, 10000.0, 11000.0};
constexpr size_t kLadderOps = 10000;
/// Latency limit on p99 (queue + service), and on the backlog left at the
/// last arrival of a ladder pass.
constexpr double kSloP99Ns = 5e6;

struct Trace {
  std::vector<Op> ops;
  std::vector<uint32_t> tenants;
  /// Arrival offsets at unit rate (1 request per ns on average); scaled by
  /// 1/rate when replayed.
  std::vector<double> unit_arrivals;
};

camal::tune::SystemSetup MakeSetup(uint64_t seed) {
  camal::tune::SystemSetup setup;
  setup.num_entries = kEntries;
  setup.entry_bytes = kEntryBytes;
  setup.scan_len = kScanLen;
  setup.num_shards = kShards;
  setup.seed = seed;
  setup.shard_skew = kTenantSkew;
  setup.total_memory_bits = static_cast<uint64_t>(
      8 * kBufferBytes + kBloomBitsPerKey * kEntries + 8 * kCacheBytes);
  return setup;
}

camal::lsm::Options MakeOptions() {
  camal::lsm::Options options;
  options.entry_bytes = kEntryBytes;
  options.size_ratio = 10.0;
  options.buffer_bytes = kBufferBytes;
  options.bloom_bits = static_cast<uint64_t>(kBloomBitsPerKey * kEntries);
  options.block_cache_bytes = kCacheBytes;
  return options;
}

/// Generates `count` requests with their tenants and unit-rate Poisson
/// arrival offsets.
Trace Generate(camal::workload::OperationGenerator* gen,
               const camal::engine::StorageEngine& engine, size_t count,
               uint64_t arrival_seed, Tracer* tracer) {
  Trace trace;
  trace.ops.reserve(count);
  trace.tenants.reserve(count);
  trace.unit_arrivals.reserve(count);
  camal::util::Random arrivals(arrival_seed);
  double clock = 0.0;
  for (size_t i = 0; i < count; ++i) {
    camal::workload::Operation op;
    {
      ScopedSpan span(tracer, SpanName::kNext, i);
      op = gen->Next();
    }
    const Op engine_op = camal::workload::ToEngineOp(op);
    trace.ops.push_back(engine_op);
    trace.tenants.push_back(
        static_cast<uint32_t>(engine.ShardIndex(engine_op.key)));
    clock += -std::log(1.0 - arrivals.NextDouble());
    trace.unit_arrivals.push_back(clock);
  }
  return trace;
}

struct PassResult {
  uint64_t submitted = 0;
  uint64_t shed = 0;
  uint64_t mismatches = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double backlog_ns = 0.0;
  /// WallNs() once the last completion was polled: the end of serving.
  int64_t served_at_ns = 0;
  camal::serve::GatewayStats stats;
  std::vector<camal::serve::Completion> done;
  /// Trace index of each admitted request, by request id.
  std::vector<uint32_t> op_of_id;
};

/// Replays `trace` at `rate` through a fresh gateway and collects the
/// completions; checking them is left to `CheckPass`.
PassResult ServePass(camal::engine::StorageEngine* engine,
                     camal::tune::MemoryArbiter* arbiter, const Trace& trace,
                     double rate, Tracer* tracer) {
  camal::serve::GatewayConfig gcfg;
  gcfg.num_tenants = kShards;
  gcfg.max_queue_depth = kQueueDepth;
  camal::serve::Gateway gateway(engine, gcfg);
  gateway.set_observer(arbiter);

  PassResult pass;
  const double ns_per_unit = 1e9 / rate;
  pass.op_of_id.assign(trace.ops.size() + 1, 0);
  uint64_t last_arrival = 0;
  for (size_t i = 0; i < trace.ops.size(); ++i) {
    const auto arrival =
        static_cast<uint64_t>(trace.unit_arrivals[i] * ns_per_unit);
    last_arrival = arrival;
    {
      ScopedSpan span(tracer, SpanName::kPump, i);
      gateway.Pump(arrival);
    }
    camal::serve::SubmitResult r;
    {
      ScopedSpan span(tracer, SpanName::kSubmit, i);
      r = gateway.Submit(trace.tenants[i], trace.ops[i], arrival);
    }
    ++pass.submitted;
    if (r.status == camal::serve::AdmitStatus::kAdmitted) {
      pass.op_of_id[r.id] = static_cast<uint32_t>(i);
    } else {
      ++pass.shed;
    }
  }
  pass.backlog_ns =
      std::max(0.0, gateway.engine_free_ns() - static_cast<double>(last_arrival));
  {
    ScopedSpan span(tracer, SpanName::kFlush);
    gateway.Flush();
  }
  gateway.PollCompletions(&pass.done);
  pass.served_at_ns = WallNs();
  pass.stats = gateway.StatsSnapshot();
  return pass;
}

/// Checks every completion of `pass` against the oracle in completion
/// (= execution) order and takes the latency percentiles.
void CheckPass(const Trace& trace, Oracle* oracle, PassResult* pass) {
  std::vector<double> latencies;
  latencies.reserve(pass->done.size());
  for (const camal::serve::Completion& c : pass->done) {
    if (!oracle->Apply(trace.ops[pass->op_of_id[c.id]], c.result)) {
      ++pass->mismatches;
    }
    latencies.push_back(c.TotalNs());
  }
  pass->p50_ns = Quantile(latencies, 0.50);
  pass->p99_ns = Quantile(std::move(latencies), 0.99);
}

}  // namespace

RepResult RunSimGateway(const RepConfig& cfg) {
  RepResult out;
  Tracer* tracer = cfg.tracer;
  const int64_t rep_start = WallNs();
  ScopedSpan rep_span(tracer, SpanName::kRep, cfg.seed);

  const camal::tune::SystemSetup setup = MakeSetup(cfg.seed);
  camal::tune::ValidateOrDie(setup);
  const camal::lsm::Options total = MakeOptions();
  camal::engine::ShardedEngine sharded(kShards, total,
                                       setup.MakeDeviceConfig());
  std::unique_ptr<TracedEngine> traced;
  camal::engine::StorageEngine* engine = &sharded;
  if (tracer != nullptr) {
    traced = std::make_unique<TracedEngine>(&sharded, tracer, false);
    engine = traced.get();
  }
  camal::tune::MemoryArbiter arbiter(setup, total, kShards,
                                     camal::tune::ArbiterOptions{});

  camal::workload::KeySpace keys(kEntries, cfg.seed);
  Trace main_trace;
  Trace ladder_trace;
  {
    ScopedSpan span(tracer, SpanName::kSetup);
    // Bulk load straight into each shard's tree: bit-identical to
    // workload::BulkLoad through the engine, and it times the lsm layer.
    uint64_t value = 1;
    for (uint64_t key : keys.keys()) {
      camal::lsm::LsmTree* tree = sharded.shard(sharded.ShardIndex(key));
      ScopedSpan put(tracer, SpanName::kTreePut);
      tree->Put(key, value++);
    }
    const int64_t gen_start = WallNs();
    camal::workload::GeneratorConfig gen_cfg;
    gen_cfg.scan_len = kScanLen;
    gen_cfg.shard_skew = kTenantSkew;
    gen_cfg.num_shards = kShards;
    camal::model::WorkloadSpec spec{kMix[0], kMix[1], kMix[2], kMix[3]};
    spec.skew = kKeySkew;
    camal::workload::OperationGenerator gen(spec, &keys, gen_cfg,
                                            camal::util::HashCombine(cfg.seed, 1));
    main_trace = Generate(&gen, sharded, kMainOps,
                          camal::util::HashCombine(cfg.seed, 2), tracer);
    ladder_trace = Generate(&gen, sharded, kLadderOps,
                            camal::util::HashCombine(cfg.seed, 3), tracer);
    if (tracer != nullptr) {
      out.timing["workload.gen_ns"] =
          static_cast<double>(WallNs() - gen_start) /
          static_cast<double>(kMainOps + kLadderOps);
    }
  }
  out.setup_s = SecondsSince(rep_start);

  Oracle oracle(keys.keys());
  const uint64_t entries_start = engine->TotalEntries();
  engine->ResetOpCostWindows();
  const camal::sim::DeviceSnapshot cost0 = engine->CostSnapshot();
  const camal::engine::EngineCounters counters0 = engine->AggregateCounters();
  uint64_t hits0 = 0;
  uint64_t misses0 = 0;
  for (size_t s = 0; s < kShards; ++s) {
    hits0 += sharded.shard(s)->cache()->hits();
    misses0 += sharded.shard(s)->cache()->misses();
  }

  out.calibration_ms.push_back(CalibrationMs());
  const size_t first_span = tracer != nullptr ? tracer->spans().size() : 0;
  const int64_t measured_start = WallNs();
  PassResult main;
  {
    ScopedSpan span(tracer, SpanName::kMeasured);
    main = ServePass(engine, &arbiter, main_trace, kMainRate, tracer);
  }
  out.ops_per_s.push_back(
      static_cast<double>(main.stats.completed) /
      (static_cast<double>(main.served_at_ns - measured_start) / 1e9));
  out.calibration_ms.push_back(CalibrationMs());
  CheckPass(main_trace, &oracle, &main);
  if (tracer != nullptr) {
    const std::vector<SpanTotals> t =
        tracer->TotalsByName(first_span, tracer->spans().size());
    const auto self = [&t](SpanName name) {
      return t[static_cast<size_t>(name)].self_ns;
    };
    const auto completed = static_cast<double>(main.stats.completed);
    out.timing["serve.submit_ns"] =
        PerOp(self(SpanName::kSubmit), static_cast<double>(main.submitted));
    out.timing["serve.dispatch_self_ns"] =
        PerOp(self(SpanName::kPump) + self(SpanName::kFlush), completed);
    out.timing["engine.reconfigure_ms"] =
        t[static_cast<size_t>(SpanName::kReconfigureShard)].total_ns / 1e6 +
        t[static_cast<size_t>(SpanName::kReconfigure)].total_ns / 1e6;
    out.timing["engine.exec_ns"] = PerOp(
        t[static_cast<size_t>(SpanName::kExecuteOps)].total_ns, completed);
  }
  out.attempted = main.submitted;
  out.mismatches = main.mismatches;
  out.failed = main.shed + main.mismatches;

  const camal::sim::DeviceSnapshot cost1 = engine->CostSnapshot();
  const camal::engine::EngineCounters counters1 = engine->AggregateCounters();
  uint64_t hits1 = 0;
  uint64_t misses1 = 0;
  for (size_t s = 0; s < kShards; ++s) {
    hits1 += sharded.shard(s)->cache()->hits();
    misses1 += sharded.shard(s)->cache()->misses();
  }
  const auto ops = static_cast<double>(main.stats.completed);
  Metrics& x = out.exact;
  x["lat_p50_us"] = main.p50_ns / 1e3;
  x["lat_p99_us"] = main.p99_ns / 1e3;
  x["ios_per_op"] = PerOp(static_cast<double>(main.stats.total_ios), ops);
  x["fail_frac"] = PerOp(static_cast<double>(out.failed),
                         static_cast<double>(out.attempted));
  x["serve.ops_per_batch"] =
      PerOp(ops, static_cast<double>(main.stats.batches));
  x["serve.queue_p99_us"] = main.stats.queue_latency_ns.Quantile(0.99) / 1e3;
  x["serve.shed_frac"] = main.stats.ShedFraction();
  x["serve.max_queue_depth"] = static_cast<double>(main.stats.max_queue_depth);
  AddOpKindWindows(*engine, &x, &x);
  x["sim.read_blocks_per_op"] =
      PerOp(static_cast<double>(cost1.block_reads - cost0.block_reads), ops);
  x["sim.write_blocks_per_op"] =
      PerOp(static_cast<double>(cost1.block_writes - cost0.block_writes), ops);
  x["lsm.flushes_per_kop"] =
      PerKop(static_cast<double>(counters1.flushes - counters0.flushes), ops);
  x["lsm.merges_per_kop"] =
      PerKop(static_cast<double>(counters1.merges - counters0.merges), ops);
  x["lsm.compaction_ios_per_op"] = PerOp(
      static_cast<double>(counters1.compaction_block_reads +
                          counters1.compaction_block_writes -
                          counters0.compaction_block_reads -
                          counters0.compaction_block_writes),
      ops);
  const double accesses = static_cast<double>(hits1 - hits0 + misses1 - misses0);
  x["lsm.cache_hit_frac"] = PerOp(static_cast<double>(hits1 - hits0), accesses);

  x["camal.arbiter_rounds"] = static_cast<double>(arbiter.rounds());
  x["camal.arbiter_moves"] = static_cast<double>(arbiter.moves());
  x["oracle.checked"] = static_cast<double>(oracle.checked());

  // Workload properties.
  uint64_t kind_counts[4] = {0, 0, 0, 0};
  uint64_t tenant_counts[kShards] = {0, 0, 0, 0};
  for (size_t i = 0; i < main_trace.ops.size(); ++i) {
    ++kind_counts[static_cast<size_t>(main_trace.ops[i].kind)];
    ++tenant_counts[main_trace.tenants[i]];
  }
  const auto n = static_cast<double>(main_trace.ops.size());
  Metrics& p = out.props;
  p["share.get"] = kind_counts[static_cast<size_t>(OpKind::kGet)] / n;
  p["share.put"] = kind_counts[static_cast<size_t>(OpKind::kPut)] / n;
  p["share.delete"] = kind_counts[static_cast<size_t>(OpKind::kDelete)] / n;
  p["share.scan"] = kind_counts[static_cast<size_t>(OpKind::kScan)] / n;
  p["tenant_skew"] = kTenantSkew;
  p["hot_tenant_share"] =
      *std::max_element(tenant_counts, tenant_counts + kShards) / n;
  p["key_skew"] = kKeySkew;
  p["live_keys_start"] = static_cast<double>(keys.num_keys());
  p["live_keys_end"] = static_cast<double>(oracle.live_keys());
  p["stored_entries_start"] = static_cast<double>(entries_start);
  p["stored_entries_end"] = static_cast<double>(engine->TotalEntries());
  p["data_bytes"] = static_cast<double>(entries_start * kEntryBytes);
  p["cache_bytes"] = static_cast<double>(kCacheBytes);
  p["data_to_cache"] =
      static_cast<double>(entries_start * kEntryBytes) / kCacheBytes;
  p["cache_hit_frac"] = x["lsm.cache_hit_frac"];
  p["main_rate_kops"] = kMainRate / 1e3;

  // Rate ladder: the highest rung whose p99 meets the limit with nothing
  // shed and no backlog beyond the limit at the last arrival. Its result
  // is a per-layer value, so only traced repetitions climb it; untraced
  // ones spend that time on more measured passes.
  if (tracer != nullptr) {
    double slo_rate = 0.0;
    for (double rate : kLadder) {
      PassResult rung = ServePass(engine, &arbiter, ladder_trace, rate, tracer);
      CheckPass(ladder_trace, &oracle, &rung);
      out.mismatches += rung.mismatches;
      out.failed += rung.mismatches;
      if (rung.shed == 0 && rung.p99_ns <= kSloP99Ns &&
          rung.backlog_ns <= kSloP99Ns) {
        slo_rate = rate;
      }
    }
    x["serve.slo_rate_kops"] = slo_rate / 1e3;
  }
  return out;
}

}  // namespace perfbench
