#ifndef CAMAL_PERFBENCH_TRACE_H_
#define CAMAL_PERFBENCH_TRACE_H_

// Span recording for the traced run. Spans are taken from the benchmark's
// own code, around each call it makes into a library module, and kept in
// memory until the run ends. A layer's self time is its spans' durations
// minus the part their child spans cover.

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/storage_engine.h"

namespace perfbench {

/// The repository's modules, plus the benchmark itself.
enum class Layer : uint8_t {
  kBench,
  kServe,
  kWorkload,
  kEngine,
  kLsm,
  kCamal,
  kMl,
  kModel,
  kCount,
};

const char* LayerName(Layer layer);

/// Every public call the benchmark wraps in a span.
enum class SpanName : uint8_t {
  kRep,            // bench: one repetition of a workload
  kSetup,          // bench: everything before the first measured op
  kMeasured,       // bench: the measured phase
  kSubmit,         // serve::Gateway::Submit
  kPump,           // serve::Gateway::Pump
  kFlush,          // serve::Gateway::Flush
  kNext,           // workload::OperationGenerator::Next
  kExecute,        // workload::Execute
  kExecuteOps,     // engine::StorageEngine::ExecuteOps
  kReconfigure,    // engine::StorageEngine::Reconfigure
  kReconfigureShard,  // engine::StorageEngine::ReconfigureShard
  kPointOp,        // engine::StorageEngine::Put/Get/Delete/Scan
  kTreePut,        // lsm::LsmTree::Put (bulk load into a shard's tree)
  kTrain,          // tune::CamalTuner::Train
  kRecommend,      // tune::*Tuner::Recommend / RecommendFor
  kEvaluate,       // tune::Evaluator::EvaluateBatch
  kMakeSample,     // tune::Evaluator::MakeSample
  kRunPhase,       // tune::DynamicTuner::RunPhase
  kFit,            // ml::Regressor::Fit
  kModelCost,      // model::CostModel::OpCost
  kCount,
};

const char* SpanNameText(SpanName name);
Layer SpanLayer(SpanName name);

/// One recorded span. `parent` is the index of the enclosing span (-1 at
/// the root); `id` is the request id (gateway submits), batch index
/// (engine calls), or phase index, where one exists.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;
  uint64_t id = 0;
  int32_t parent = -1;
  SpanName name = SpanName::kRep;
};

/// Per-span-name totals of one trace.
struct SpanTotals {
  uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Single-threaded span recorder: every span is opened and closed on the
/// thread that created the tracer (the benchmark's driving thread, on
/// which every library call runs inline).
class Tracer {
 public:
  Tracer();

  /// Opens a span nested in the innermost open span; returns its index.
  int32_t Begin(SpanName name, uint64_t id);
  /// Closes span `index` (must be the innermost open span).
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Totals per span name over spans [first, last) in opening order.
  std::vector<SpanTotals> TotalsByName(size_t first = 0,
                                       size_t last = SIZE_MAX) const;
  /// Self time summed per layer, ns.
  std::vector<double> SelfNsByLayer() const;

  /// Writes the per-name totals, then the first `max_spans` spans, one
  /// tab-separated line each. Returns false on I/O failure.
  bool Write(const std::string& path, size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
  std::thread::id owner_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, uint64_t id = 0)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1 : tracer->Begin(name, id)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Forwarding engine that times the calls made through it. Every method
/// forwards to `inner`; `ExecuteOps` re-folds the inner results into this
/// wrapper's own per-(shard, op-kind) cost windows through `ProfileBatch`,
/// so callers that read the windows (racing, the arbiter) see exactly what
/// they would see on the inner engine, and every result stays
/// bit-identical.
///
/// With `record_latencies` the wrapper also keeps every op's
/// engine-attributed latency (`DynamicTuner::RunPhase` returns only
/// per-phase aggregates, and the benchmark reports whole-run percentiles).
class TracedEngine : public camal::engine::StorageEngine {
 public:
  TracedEngine(camal::engine::StorageEngine* inner, Tracer* tracer,
               bool record_latencies);

  void Put(uint64_t key, uint64_t value) override;
  void Delete(uint64_t key) override;
  bool Get(uint64_t key, uint64_t* value) override;
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<camal::lsm::Entry>* out) override;
  void ExecuteOps(const camal::engine::Op* ops, size_t count,
                  camal::engine::OpResult* results) override;
  using StorageEngine::ExecuteOps;
  void FlushMemtable() override;
  void Reconfigure(const camal::lsm::Options& new_options) override;
  size_t NumShards() const override;
  size_t ShardIndex(uint64_t key) const override;
  void ReconfigureShard(size_t shard,
                        const camal::lsm::Options& options) override;
  camal::engine::ShardState ShardLifecycle(size_t shard) const override;
  size_t MaterializedShards() const override;
  void AppendResidentShards(std::vector<size_t>* out) const override;
  camal::lsm::Options ShardOptionsSnapshot(size_t shard) const override;
  camal::sim::DeviceSnapshot CostSnapshot() const override;
  camal::sim::DeviceSnapshot ShardCostSnapshot(size_t shard) const override;
  camal::engine::EngineCounters AggregateCounters() const override;
  camal::engine::EngineCounters ShardCounters(size_t shard) const override;
  uint64_t TotalEntries() const override;
  uint64_t DiskEntries() const override;
  uint64_t ShardEntries(size_t shard) const override;
  bool InTransition() const override;

  /// Ops served through `ExecuteOps`.
  uint64_t exec_ops() const { return exec_ops_; }
  const std::vector<double>& latencies_ns() const { return latencies_ns_; }

 private:
  camal::engine::StorageEngine* inner_;
  Tracer* tracer_;
  bool record_latencies_;
  uint64_t batches_ = 0;
  uint64_t exec_ops_ = 0;
  std::vector<double> latencies_ns_;
};

/// Monotonic wall clock, ns.
int64_t WallNs();

}  // namespace perfbench

#endif  // CAMAL_PERFBENCH_TRACE_H_
