#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

struct SpanInfo {
  const char* text;
  Layer layer;
};

constexpr SpanInfo kSpanInfo[] = {
    {"bench.rep", Layer::kBench},
    {"bench.setup", Layer::kBench},
    {"bench.measured", Layer::kBench},
    {"serve.Submit", Layer::kServe},
    {"serve.Pump", Layer::kServe},
    {"serve.Flush", Layer::kServe},
    {"workload.Next", Layer::kWorkload},
    {"workload.Execute", Layer::kWorkload},
    {"engine.ExecuteOps", Layer::kEngine},
    {"engine.Reconfigure", Layer::kEngine},
    {"engine.ReconfigureShard", Layer::kEngine},
    {"engine.PointOp", Layer::kEngine},
    {"lsm.Put", Layer::kLsm},
    {"camal.Train", Layer::kCamal},
    {"camal.Recommend", Layer::kCamal},
    {"camal.Evaluate", Layer::kCamal},
    {"camal.MakeSample", Layer::kCamal},
    {"camal.RunPhase", Layer::kCamal},
    {"ml.Fit", Layer::kMl},
    {"model.OpCost", Layer::kModel},
};
static_assert(sizeof(kSpanInfo) / sizeof(kSpanInfo[0]) ==
                  static_cast<size_t>(SpanName::kCount),
              "one SpanInfo per SpanName");

constexpr const char* kLayerNames[] = {"bench", "serve", "workload", "engine",
                                       "lsm",   "camal", "ml",       "model"};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
                  static_cast<size_t>(Layer::kCount),
              "one name per Layer");

}  // namespace

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}
const char* SpanNameText(SpanName name) {
  return kSpanInfo[static_cast<size_t>(name)].text;
}
Layer SpanLayer(SpanName name) {
  return kSpanInfo[static_cast<size_t>(name)].layer;
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : owner_(std::this_thread::get_id()) {
  spans_.reserve(1 << 20);
}

int32_t Tracer::Begin(SpanName name, uint64_t id) {
  if (std::this_thread::get_id() != owner_) {
    std::fprintf(stderr, "perfbench: span %s opened off the driving thread\n",
                 SpanNameText(name));
    std::abort();
  }
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_;
  span.start_ns = WallNs();
  spans_.push_back(span);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(int32_t index) {
  if (index != open_) {
    std::fprintf(stderr, "perfbench: spans closed out of order\n");
    std::abort();
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = WallNs();
  open_ = span.parent;
  if (open_ >= 0) {
    spans_[static_cast<size_t>(open_)].child_ns += span.end_ns - span.start_ns;
  }
}

std::vector<SpanTotals> Tracer::TotalsByName(size_t first,
                                             size_t last) const {
  std::vector<SpanTotals> totals(static_cast<size_t>(SpanName::kCount));
  last = std::min(last, spans_.size());
  for (size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    SpanTotals& t = totals[static_cast<size_t>(s.name)];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    t.calls += 1;
    t.total_ns += dur;
    t.self_ns += dur - static_cast<double>(s.child_ns);
  }
  return totals;
}

std::vector<double> Tracer::SelfNsByLayer() const {
  std::vector<double> self(static_cast<size_t>(Layer::kCount), 0.0);
  const std::vector<SpanTotals> totals = TotalsByName();
  for (size_t n = 0; n < totals.size(); ++n) {
    self[static_cast<size_t>(SpanLayer(static_cast<SpanName>(n)))] +=
        totals[n].self_ns;
  }
  return self;
}

bool Tracer::Write(const std::string& path, size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<SpanTotals> totals = TotalsByName();
  std::fprintf(f, "# totals\nname\tlayer\tcalls\ttotal_ns\tself_ns\n");
  for (size_t n = 0; n < totals.size(); ++n) {
    const auto name = static_cast<SpanName>(n);
    std::fprintf(f, "%s\t%s\t%llu\t%.0f\t%.0f\n", SpanNameText(name),
                 LayerName(SpanLayer(name)),
                 static_cast<unsigned long long>(totals[n].calls),
                 totals[n].total_ns, totals[n].self_ns);
  }
  const size_t written = std::min(max_spans, spans_.size());
  std::fprintf(f, "# spans: first %zu of %zu\n", written, spans_.size());
  std::fprintf(f, "span\tparent\tname\tid\tstart_ns\tend_ns\tself_ns\n");
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%llu\t%lld\t%lld\t%lld\n", i, s.parent,
                 SpanNameText(s.name), static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ TracedEngine

using camal::engine::EngineCounters;
using camal::engine::Op;
using camal::engine::OpResult;
using camal::engine::ShardState;

TracedEngine::TracedEngine(camal::engine::StorageEngine* inner,
                           Tracer* tracer, bool record_latencies)
    : inner_(inner), tracer_(tracer), record_latencies_(record_latencies) {}

void TracedEngine::Put(uint64_t key, uint64_t value) {
  ScopedSpan span(tracer_, SpanName::kPointOp);
  inner_->Put(key, value);
}
void TracedEngine::Delete(uint64_t key) {
  ScopedSpan span(tracer_, SpanName::kPointOp);
  inner_->Delete(key);
}
bool TracedEngine::Get(uint64_t key, uint64_t* value) {
  ScopedSpan span(tracer_, SpanName::kPointOp);
  return inner_->Get(key, value);
}
size_t TracedEngine::Scan(uint64_t start_key, size_t max_entries,
                          std::vector<camal::lsm::Entry>* out) {
  ScopedSpan span(tracer_, SpanName::kPointOp);
  return inner_->Scan(start_key, max_entries, out);
}

void TracedEngine::ExecuteOps(const Op* ops, size_t count,
                              OpResult* results) {
  {
    ScopedSpan span(tracer_, SpanName::kExecuteOps, batches_++);
    inner_->ExecuteOps(ops, count, results);
  }
  ProfileBatch(ops, count, results);
  exec_ops_ += count;
  if (record_latencies_) {
    for (size_t i = 0; i < count; ++i) {
      latencies_ns_.push_back(results[i].latency_ns);
    }
  }
}

void TracedEngine::FlushMemtable() {
  ScopedSpan span(tracer_, SpanName::kPointOp);
  inner_->FlushMemtable();
}

void TracedEngine::Reconfigure(const camal::lsm::Options& new_options) {
  ScopedSpan span(tracer_, SpanName::kReconfigure);
  inner_->Reconfigure(new_options);
}

void TracedEngine::ReconfigureShard(size_t shard,
                                    const camal::lsm::Options& options) {
  ScopedSpan span(tracer_, SpanName::kReconfigureShard, shard);
  inner_->ReconfigureShard(shard, options);
}

size_t TracedEngine::NumShards() const { return inner_->NumShards(); }
size_t TracedEngine::ShardIndex(uint64_t key) const {
  return inner_->ShardIndex(key);
}
ShardState TracedEngine::ShardLifecycle(size_t shard) const {
  return inner_->ShardLifecycle(shard);
}
size_t TracedEngine::MaterializedShards() const {
  return inner_->MaterializedShards();
}
void TracedEngine::AppendResidentShards(std::vector<size_t>* out) const {
  inner_->AppendResidentShards(out);
}
camal::lsm::Options TracedEngine::ShardOptionsSnapshot(size_t shard) const {
  return inner_->ShardOptionsSnapshot(shard);
}
camal::sim::DeviceSnapshot TracedEngine::CostSnapshot() const {
  return inner_->CostSnapshot();
}
camal::sim::DeviceSnapshot TracedEngine::ShardCostSnapshot(
    size_t shard) const {
  return inner_->ShardCostSnapshot(shard);
}
EngineCounters TracedEngine::AggregateCounters() const {
  return inner_->AggregateCounters();
}
EngineCounters TracedEngine::ShardCounters(size_t shard) const {
  return inner_->ShardCounters(shard);
}
uint64_t TracedEngine::TotalEntries() const { return inner_->TotalEntries(); }
uint64_t TracedEngine::DiskEntries() const { return inner_->DiskEntries(); }
uint64_t TracedEngine::ShardEntries(size_t shard) const {
  return inner_->ShardEntries(shard);
}
bool TracedEngine::InTransition() const { return inner_->InTransition(); }

}  // namespace perfbench
