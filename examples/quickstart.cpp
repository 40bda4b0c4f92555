// Quickstart: build an LSM-tree on the simulated device, run a few
// operations, and tune it for a workload with the closed-form model.
//
// Build & run:  ./build/example_quickstart

#include <cstdio>
#include <vector>

#include "camal/classic_tuner.h"
#include "camal/sample.h"
#include "lsm/lsm_tree.h"
#include "model/workload_spec.h"
#include "sim/device.h"

using camal::lsm::Entry;
using camal::lsm::LsmTree;
using camal::lsm::Options;
using camal::model::WorkloadSpec;
using camal::sim::Device;
using camal::tune::ClassicTuner;
using camal::tune::SystemSetup;
using camal::tune::TunerOptions;
using camal::tune::TuningConfig;

int main() {
  // 1. A device and a tree with hand-picked options.
  Device device;
  Options options;
  options.size_ratio = 4.0;
  options.entry_bytes = 128;
  options.buffer_bytes = 128 * 256;  // 256 entries of write buffer
  options.bloom_bits = 10 * 10000;   // ~10 bits per key
  LsmTree tree(options, &device);

  // 2. Write, read, delete, scan.
  for (uint64_t k = 1; k <= 10000; ++k) tree.Put(k * 2, k);
  uint64_t value = 0;
  if (tree.Get(2000, &value)) {
    std::printf("Get(2000) -> %llu\n", static_cast<unsigned long long>(value));
  }
  tree.Delete(2000);
  std::printf("after Delete: Get(2000) found=%d\n",
              static_cast<int>(tree.Get(2000, &value)));

  std::vector<Entry> scan;
  tree.Scan(5000, 5, &scan);
  std::printf("Scan(5000, 5):");
  for (const Entry& e : scan) {
    std::printf(" %llu", static_cast<unsigned long long>(e.key));
  }
  std::printf("\n");

  // 3. What did that cost on the simulated device?
  std::printf("simulated time: %.2f ms, block reads: %llu, writes: %llu\n",
              device.elapsed_ns() / 1e6,
              static_cast<unsigned long long>(device.block_reads()),
              static_cast<unsigned long long>(device.block_writes()));
  std::printf("levels: %d, entries on disk: %llu\n",
              tree.NumPopulatedLevels(),
              static_cast<unsigned long long>(tree.DiskEntries()));

  // 4. Ask the classic (closed-form) tuner for a write-heavy configuration.
  SystemSetup setup;
  setup.num_entries = 10000;
  setup.total_memory_bits = 16 * 10000;
  ClassicTuner tuner(setup, TunerOptions{});
  WorkloadSpec write_heavy{0.05, 0.05, 0.05, 0.85};
  const TuningConfig tuned = tuner.Recommend(write_heavy);
  std::printf("classic tuning for 85%% writes: %s\n",
              tuned.ToString().c_str());

  // 5. Reconfigure the live tree to the tuned shape (lazy transition).
  tree.Reconfigure(tuned.ToOptions(setup));
  for (uint64_t k = 1; k <= 5000; ++k) tree.Put(k * 2 + 100000, k);
  std::printf("after reconfigure: in_transition=%d, transition I/Os=%llu\n",
              static_cast<int>(tree.InTransition()),
              static_cast<unsigned long long>(tree.counters().transition_ios));
  return 0;
}
